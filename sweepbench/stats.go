package main

import (
	"bufio"
	"sort"
	"strconv"
	"strings"
)

// median returns the sample median (the mean of the two middle values
// for an even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tailBeyond is how many samples must lie beyond a reported tail value.
const tailBeyond = 10

// tail returns the highest percentile of xs that has at least
// tailBeyond samples above it: the (n−10)-th smallest value, at
// percentile 100·(n−10)/n. With tailBeyond or fewer samples no
// percentile qualifies; it then returns the maximum with ok false.
func tail(xs []float64) (value, percentile float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	s := sorted(xs)
	if n <= tailBeyond {
		return s[n-1], 100, false
	}
	return s[n-1-tailBeyond], 100 * float64(n-tailBeyond) / float64(n), true
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// promSamples is a parsed Prometheus text exposition: each metric name
// (histogram series keep their _bucket/_sum/_count suffix) mapped to the
// sum of its samples over all label sets.
type promSamples map[string]float64

// parseProm parses the text exposition format. Comment lines and
// malformed lines are skipped; label sets are summed per name.
func parseProm(text string) promSamples {
	out := promSamples{}
	sc := bufio.NewScanner(strings.NewReader(text))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, rest := line, ""
		if i := strings.IndexByte(line, '{'); i >= 0 {
			j := strings.LastIndexByte(line, '}')
			if j < i {
				continue
			}
			name, rest = line[:i], line[j+1:]
		} else if i := strings.IndexAny(line, " \t"); i >= 0 {
			name, rest = line[:i], line[i:]
		} else {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		out[name] += v
	}
	return out
}

// delta returns after[name] − before[name].
func delta(before, after promSamples, name string) float64 {
	return after[name] - before[name]
}
