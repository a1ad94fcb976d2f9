package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a p90 read off fewer than ten slower samples is one outlier away
// from a different number.
const minBeyond = 10

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle sample (the mean of the two middle ones
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive"
// method), which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q2, q3 float64, err error) {
	n := len(xs)
	if n < 2 {
		return 0, 0, 0, fmt.Errorf("quartiles need at least 2 samples, have %d", n)
	}
	s := sorted(xs)
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), nil
}

// spread is the quartile distance of xs as a share of its median.
func spread(xs []float64) (float64, error) {
	q1, q2, q3, err := quartiles(xs)
	if err != nil {
		return 0, err
	}
	if q2 == 0 {
		return math.Inf(1), nil
	}
	return (q3 - q1) / math.Abs(q2), nil
}

// percentile returns the nearest-rank p-th percentile (0 < p < 100)
// and whether at least minBeyond samples lie above its rank.
func percentile(xs []float64, p float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted(xs)[rank-1], n-rank >= minBeyond
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// validName reports whether s is a legal metric or workload name:
// 1 to 64 letters, digits, '_', '.' and '-', starting with a letter
// or digit.
func validName(s string) bool {
	if len(s) == 0 || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && (i == 0 || c != '_' && c != '.' && c != '-') {
			return false
		}
	}
	return true
}

// validUnit reports whether s is a legal unit: 1 to 16 letters,
// digits, '_', '/', '%', '.' and '-'.
func validUnit(s string) bool {
	if len(s) == 0 || len(s) > 16 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		alnum := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
		if !alnum && c != '_' && c != '/' && c != '%' && c != '.' && c != '-' {
			return false
		}
	}
	return true
}
