package main

import (
	"math"
	"sort"
)

// rng is splitmix64: the benchmark's own generator, so edits to the
// repository's PRNG packages cannot move the request streams.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// ranker draws key ranks in [0, n): zipfian with exponent theta by exact
// inverse-CDF lookup, or uniform when theta is 0.
type ranker struct {
	n   int
	cdf []float64 // cdf[i] = P(rank <= i); nil for uniform
}

func newRanker(n int, theta float64) *ranker {
	z := &ranker{n: n}
	if theta == 0 {
		return z
	}
	z.cdf = make([]float64, n)
	sum := 0.0
	for i := range z.cdf {
		sum += zipfWeight(i, theta)
		z.cdf[i] = sum
	}
	for i := range z.cdf {
		z.cdf[i] /= sum
	}
	return z
}

// zipfWeight is the unnormalised probability of rank i (0-based).
func zipfWeight(i int, theta float64) float64 { return 1 / math.Pow(float64(i+1), theta) }

func (z *ranker) rank(r *rng) int {
	if z.cdf == nil {
		return int(r.next() % uint64(z.n))
	}
	u := r.float()
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= z.n {
		i = z.n - 1
	}
	return i
}

// Requests are packed into one word: the key in the low bits and the
// operation class in the top bit.
const writeBit = uint64(1) << 63

func isWrite(req uint64) bool  { return req&writeBit != 0 }
func reqKey(req uint64) uint64 { return req &^ writeBit }

// streamLen is the number of requests generated per worker; workers cycle
// through their stream when a phase outlasts it.
const streamLen = 1 << 20

// permSeed fixes the rank-to-key permutation. It does not vary with the
// run's seed: which shard the hottest keys hash to decides how often the
// workers collide, and letting each seed redraw that would make the
// seed, not the server, the largest source of run-to-run spread.
const permSeed = 0x5e12ebe1c4

// buildStreams derives one request stream per worker from seed: a fixed
// permutation maps ranks to keys, ranks come from the workload's
// distribution, and each request is a write with probability 1-getFrac.
func buildStreams(w workload, seed uint64, workers, n int) [][]uint64 {
	r := rng{s: permSeed}
	perm := make([]uint64, w.Keys)
	for i := range perm {
		perm[i] = uint64(i)
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := r.next() % uint64(i+1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	z := newRanker(w.Keys, w.Theta)
	streams := make([][]uint64, workers)
	for wi := range streams {
		wr := rng{s: seed ^ (uint64(wi+1) * 0xd1b54a32d192ed03)}
		s := make([]uint64, n)
		for i := range s {
			req := perm[z.rank(&wr)]
			if wr.float() >= w.GetFrac {
				req |= writeBit
			}
			s[i] = req
		}
		streams[wi] = s
	}
	return streams
}
