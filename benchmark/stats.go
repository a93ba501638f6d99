package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// series is one metric's samples within a run. The value a run reports
// is the median of its samples, so one stalled epoch or window does not
// move the number; the quartiles and the count are printed beside it.
type series struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"-"`
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
}

// results collects a run's metrics and its operation counts.
type results struct {
	byName    map[string]*series
	attempted int
	failed    int
	failures  []string
	// overhead holds each stage's tracing overhead in percent: traced
	// over untraced intervals of the same traced run.
	overhead []float64
}

func newResults() *results { return &results{byName: map[string]*series{}} }

// add appends samples to the named metric, which must be in the metric
// table: a typo in a name is a bug, not a new metric.
func (r *results) add(name string, vs ...float64) {
	s, ok := r.byName[name]
	if !ok {
		def, known := metricByName[name]
		if !known {
			panic("benchmark: metric " + name + " is not in the metric table")
		}
		s = &series{Name: name, Unit: def.Unit}
		r.byName[name] = s
	}
	s.Samples = append(s.Samples, vs...)
}

// op counts one attempted operation; a non-nil err counts it as failed.
func (r *results) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		r.failures = append(r.failures, err.Error())
	}
}

// ops counts operations checked in bulk; what says how the failed ones
// failed.
func (r *results) ops(attempted, failed int, what string) {
	r.attempted += attempted
	r.failed += failed
	if failed > 0 {
		r.failures = append(r.failures, fmt.Sprintf("%d of %d %s", failed, attempted, what))
	}
}

// get returns the named metric with its summary filled in, or false when
// it was not measured.
func (r *results) get(name string) (*series, bool) {
	s, ok := r.byName[name]
	if ok {
		s.N = len(s.Samples)
		s.Q1, s.Median, s.Q3 = quartiles(s.Samples)
	}
	return s, ok
}

// printTable writes one row per metric: name, unit, samples, median and
// quartiles.
func printTable(w io.Writer, ss []*series) {
	fmt.Fprintf(w, "%-40s %-9s %6s %14s %14s %14s\n", "metric", "unit", "n", "median", "q1", "q3")
	for _, s := range ss {
		fmt.Fprintf(w, "%-40s %-9s %6d %14.6g %14.6g %14.6g\n", s.Name, s.Unit, s.N, s.Median, s.Q1, s.Q3)
	}
}

// quantile returns the q-quantile of sorted the way Python's
// statistics.quantiles does by default (the "exclusive" method: position
// q·(n+1) − 1, clamped to the ends), so the quartile spreads printed here
// are the ones the benchmark's driver computes.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q*float64(n+1) - 1
	lo := int(math.Floor(pos))
	switch {
	case lo < 0:
		return sorted[0]
	case lo+1 >= n:
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

func quartiles(vs []float64) (q1, med, q3 float64) {
	s := sortedCopy(vs)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

func median(vs []float64) float64 { return quantile(sortedCopy(vs), 0.5) }

func sum(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

func joinLines(lines []string, max int) string {
	if len(lines) > max {
		lines = append(lines[:max:max], fmt.Sprintf("… and %d more", len(lines)-max))
	}
	return strings.Join(lines, "\n  ")
}
