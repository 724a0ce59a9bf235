package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail figure resting on fewer is one outlier away from a different
// number.
const minBeyond = 10

// floorPct is the percentile the in-process workloads (batch, wide)
// report as an operation's time (the `primary_ms` and `secondary_ms`
// metrics): a floor just above the fastest few samples. Their operations
// are deterministic CPU- and memory-bound runs of 15 to 70 ms, and on a
// shared host neighbours slow them by up to 1.8×, in stretches of
// seconds and in phases of minutes. A run's times are then bimodal or
// shifted as a whole, and its median lands wherever the neighbours put
// it: over 6 to 10 seeds the quartile distance of the run medians was 0.2
// to 0.3 of their value, of the 10th percentiles 0.03 to 0.3, of the 2nd
// percentiles 0.1 to 0.2 in the noisiest phase seen. The 2nd percentile
// needs only a fiftieth of a run to be uncontended, and it scales with
// the operation's own cost as the median does. The served workloads
// report the median: their sub-millisecond requests vary within a run
// for reasons of their own (which request, scheduling between clients
// and server), and there the median is the steadier figure. The tail
// metrics carry the contended stretches on every workload.
const floorPct = 2

// rank is the 1-based nearest-rank index of the p-th percentile of n
// samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error (99.9/100·10000 = 9990.000000000002)
	// from pushing an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// beyond counts the samples strictly above the nearest-rank p-th
// percentile of n samples.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailCandidates are the percentiles a tail figure may be reported at.
var tailCandidates = []float64{50, 75, 90, 95, 99, 99.9}

// tailPercentile is the highest candidate percentile with at least
// minBeyond samples beyond it; ok is false when not even the median
// qualifies.
func tailPercentile(n int) (p float64, ok bool) {
	for i := len(tailCandidates) - 1; i >= 0; i-- {
		if beyond(n, tailCandidates[i]) >= minBeyond {
			return tailCandidates[i], true
		}
	}
	return 0, false
}

// samples is a list of timings in milliseconds.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/1e6) }

// pct is the nearest-rank p-th percentile; 0 for no samples.
func (s samples) pct(p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := slices.Clone(s)
	slices.Sort(c)
	return c[rank(len(c), p)-1]
}

// tail reports the p-th percentile and, in an untraced run (the only
// kind that reports it), gates that the percentile is backed by enough
// samples, naming the highest one that is.
func (s samples) tail(r *report, what string, p float64) float64 {
	if !r.traced && beyond(len(s), p) < minBeyond {
		best, _ := tailPercentile(len(s))
		r.gate("%s: %d samples leave %d beyond p%g (need %d; highest qualifying p%g) — run longer",
			what, len(s), beyond(len(s), p), p, minBeyond, best)
	}
	return s.pct(p)
}

// blockRates splits a loop's completion times (offsets from its start)
// into consecutive blocks of n operations and returns each block's
// operations per second; a trailing partial block is dropped. The
// in-process workloads report the 100−floorPct percentile of these as
// their throughput, the rate of the uncontended stretches, for the
// reason given at floorPct.
func blockRates(ends []time.Duration, n int) samples {
	var rates samples
	var prev time.Duration
	for i := n - 1; i < len(ends); i += n {
		rates = append(rates, float64(n)/(ends[i]-prev).Seconds())
		prev = ends[i]
	}
	return rates
}

// meanPct is the mean over groups of each group's p-th percentile.
func meanPct(groups []samples, p float64) float64 {
	var sum float64
	for _, g := range groups {
		sum += g.pct(p)
	}
	return sum / float64(len(groups))
}

// rateSummary is a human line for a list of block rates.
func (s samples) rateSummary(name string) string {
	return fmt.Sprintf("%s: %d blocks p10=%.4g p50=%.4g p90=%.4g p98=%.4g",
		name, len(s), s.pct(10), s.pct(50), s.pct(90), s.pct(98))
}

// summary is a human line for a timing list.
func (s samples) summary(name string) string {
	best, _ := tailPercentile(len(s))
	return fmt.Sprintf("%s: n=%d p2=%.4gms p10=%.4gms p25=%.4gms p50=%.4gms p90=%.4gms p95=%.4gms p99=%.4gms (highest percentile with >=%d beyond: p%g)",
		name, len(s), s.pct(2), s.pct(10), s.pct(25), s.pct(50), s.pct(90), s.pct(95), s.pct(99), minBeyond, best)
}
