package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
)

// steady runs the benchmark once per seed on one workload, each run in
// a fresh process, and prints every end-to-end metric's median and its
// quartile spread against the bound BENCHMARK.json fixes. It also
// prints the fingerprint digest the runs reported, in the shape of
// recorded.json. It fails if a run is incorrect or any spread exceeds
// its bound, setup_s's included.
func steady(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("hbpbench steady", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to check")
	runs := fs.Int("runs", 10, "runs, one seed each")
	first := fs.Int64("first-seed", 1, "seed of the first run; later runs count up")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	bench, err := loadBench("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbpbench steady: %v\n", err)
		return 1
	}
	if _, ok := workloads[*name]; !ok || *runs < 2 {
		fmt.Fprintf(os.Stderr, "hbpbench steady: unknown workload %q or fewer than 2 runs\n", *name)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "hbpbench steady: %v\n", err)
		return 1
	}
	values := map[string][]float64{}
	digests := map[string]bool{}
	code := 0
	for i := 0; i < *runs; i++ {
		seed := *first + int64(i)
		var buf bytes.Buffer
		cmd := exec.Command(self, "--workload", *name, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.Itoa(bench.RunSeconds), "--trace", "0")
		cmd.Stdout, cmd.Stderr = &buf, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "hbpbench steady: seed %d: %v\n", seed, err)
			return 1
		}
		res, fps, err := parseRun(buf.Bytes())
		if err != nil {
			fmt.Fprintf(os.Stderr, "hbpbench steady: seed %d: %v\n", seed, err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(stdout, "seed %d: incorrect (%d of %d failed)\n", seed, res.Failed, res.Attempted)
			code = 1
		}
		for _, fp := range fps {
			digests[fp] = true
		}
		for n, m := range res.Metrics {
			values[n] = append(values[n], m.Value)
		}
		fmt.Fprintf(stdout, "seed %d done\n", seed)
	}
	fmt.Fprintf(stdout, "%-18s %14s %14s %14s %8s %6s\n", "metric", "q1", "median", "q3", "spread", "bound")
	for _, d := range bench.EndToEnd {
		q1, q2, q3, err := quartiles(values[d.Name])
		if err != nil {
			fmt.Fprintf(stdout, "%s: %v\n", d.Name, err)
			code = 1
			continue
		}
		sp, _ := spread(values[d.Name])
		verdict := "steady"
		switch {
		case sp > d.Bound:
			verdict, code = "OVER BOUND", 1
		case sp > d.Bound/3:
			verdict = "above bound/3"
		}
		fmt.Fprintf(stdout, "%-18s %14.6g %14.6g %14.6g %8.4f %6.2f %s %.4g\n", d.Name, q1, q2, q3, sp, d.Bound, verdict, values[d.Name])
	}
	switch len(digests) {
	case 0:
	case 1:
		for fp := range digests {
			fmt.Fprintf(stdout, "fingerprint %q: %q\n", *name, fp)
		}
	default:
		fmt.Fprintf(stdout, "%d different fingerprints across the runs\n", len(digests))
		code = 1
	}
	return code
}

// parseRun reads one run's output: its final JSON line and the
// fingerprint digests it reported.
func parseRun(out []byte) (result, []string, error) {
	var res result
	var last string
	var fps []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 3 && f[0] == "fingerprint" {
			fps = append(fps, f[2])
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return res, nil, fmt.Errorf("last line is not the result: %w", err)
	}
	sort.Strings(fps)
	return res, fps, nil
}
