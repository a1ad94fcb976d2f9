package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime/pprof"
	"sort"
	"strings"
)

// cpuModules are the repo modules the per-layer CPU metrics name. A
// sample in any other repo package is charged to repo_other; a sample
// in the benchmark itself to harness.
var cpuModules = []string{
	"des", "netsim", "topology", "traffic", "core", "hbp", "pushback", "roaming",
	"metrics", "experiments", "scenario", "fleet", "jsonl",
}

// cpuBuckets is every bucket attribute can return, in report order.
var cpuBuckets = append(append([]string{}, cpuModules...),
	"repo_other", "harness", "runtime.gc", "runtime.other")

const repoPrefix = "repro/internal/"

// harnessPrefixes name the benchmark's own frames: main.* in the built
// command, the package path when its tests run.
var harnessPrefixes = []string{"main.", "repro/cmd/hbpbench."}

// attribute charges one CPU sample, given its frames innermost first,
// to the innermost frame that belongs to a repo module, so a layer's
// self time includes the runtime and standard-library work it calls
// (memmove under a slice shift, mallocgc under an allocation, a mark
// assist). Samples with no repo frame are background GC work or
// runtime.other.
func attribute(frames []string) string {
	for _, f := range frames {
		for _, h := range harnessPrefixes {
			if strings.HasPrefix(f, h) {
				return "harness"
			}
		}
		if rest, ok := strings.CutPrefix(f, repoPrefix); ok {
			mod := rest
			if i := strings.IndexAny(rest, "./"); i >= 0 {
				mod = rest[:i]
			}
			for _, m := range cpuModules {
				if m == mod {
					return m
				}
			}
			return "repo_other"
		}
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.gc") || strings.HasPrefix(f, "runtime.bgsweep") ||
			strings.HasPrefix(f, "runtime.bgscavenge") || strings.HasPrefix(f, "runtime.markroot") {
			return "runtime.gc"
		}
	}
	return "runtime.other"
}

// cpuProfile is a running CPU profile kept in memory.
type cpuProfile struct{ buf bytes.Buffer }

func startCPUProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns CPU seconds per bucket.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	return attributeProfile(p.buf.Bytes())
}

// attributeProfile decodes a gzipped pprof CPU profile and sums its
// CPU time per attribute bucket, in seconds.
func attributeProfile(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	prof, err := decodeProfile(raw)
	if err != nil {
		return nil, err
	}
	cpu := -1
	for i, t := range prof.sampleTypes {
		if prof.str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := map[string]float64{}
	for _, b := range cpuBuckets {
		out[b] = 0
	}
	var frames []string
	for _, s := range prof.samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: short sample")
		}
		frames = frames[:0]
		for _, id := range s.locs {
			for _, fn := range prof.locFuncs[id] {
				frames = append(frames, prof.str(prof.funcNames[fn]))
			}
		}
		out[attribute(frames)] += float64(s.values[cpu]) / 1e9
	}
	return out, nil
}

// topBuckets returns the k buckets with the most CPU, largest first.
func topBuckets(cpu map[string]float64, k int) []string {
	names := make([]string, 0, len(cpu))
	for n := range cpu {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if cpu[names[i]] != cpu[names[j]] {
			return cpu[names[i]] > cpu[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > k {
		names = names[:k]
	}
	return names
}

// profile holds the parts of a perftools.profiles.Profile message the
// attribution needs.
type profile struct {
	sampleTypes []int64 // string-table index of each value's type
	samples     []sample
	locFuncs    map[uint64][]uint64 // location id -> function ids, innermost inlined first
	funcNames   map[uint64]int64    // function id -> string-table index
	strings     []string
}

type sample struct {
	locs   []uint64 // leaf first
	values []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || int(i) >= len(p.strings) {
		return ""
	}
	return p.strings[i]
}

// decodeProfile parses the uncompressed profile.proto wire format.
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcNames: map[uint64]int64{}}
	err := eachField(b, func(num int, v uint64, sub []byte) error {
		switch num {
		case 1: // sample_type: ValueType{type=1}
			return eachField(sub, func(n int, v uint64, _ []byte) error {
				if n == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample: location_id=1, value=2
			var s sample
			err := eachField(sub, func(n int, v uint64, packed []byte) error {
				switch n {
				case 1:
					return eachVarint(v, packed, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, packed, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location: id=1, line=4{function_id=1}
			var id uint64
			var fns []uint64
			err := eachField(sub, func(n int, v uint64, line []byte) error {
				switch n {
				case 1:
					id = v
				case 4:
					return eachField(line, func(ln int, lv uint64, _ []byte) error {
						if ln == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case 5: // function: id=1, name=2
			var id uint64
			var name int64
			err := eachField(sub, func(n int, v uint64, _ []byte) error {
				switch n {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcNames[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(sub))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

func varint(b []byte) (uint64, int, error) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1, nil
		}
	}
	return 0, 0, errTruncated
}

// eachField walks one message's fields, passing the varint value of
// wire-type-0 fields and the payload of length-delimited ones.
func eachField(b []byte, f func(num int, v uint64, payload []byte) error) error {
	for len(b) > 0 {
		key, n, err := varint(b)
		if err != nil {
			return err
		}
		b = b[n:]
		num := int(key >> 3)
		var v uint64
		var payload []byte
		switch key & 7 {
		case 0:
			if v, n, err = varint(b); err != nil {
				return err
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n, err := varint(b)
			if err != nil {
				return err
			}
			if uint64(len(b)-n) < l {
				return errTruncated
			}
			payload = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
		if err := f(num, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields a repeated integer field's values, whether the
// encoder packed them (payload non-nil) or wrote one field per value.
func eachVarint(v uint64, packed []byte, f func(uint64)) error {
	if packed == nil {
		f(v)
		return nil
	}
	for len(packed) > 0 {
		x, n, err := varint(packed)
		if err != nil {
			return err
		}
		f(x)
		packed = packed[n:]
	}
	return nil
}
