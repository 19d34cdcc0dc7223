package main

import (
	"sort"
	"time"
)

// The probe is a fixed piece of work that the benchmark owns and that
// uses nothing of the program under test, only the Go runtime and
// standard library. It runs interleaved with the measurements, and every
// gated absolute time is scaled by the probe's nominal time over its
// time right there, so that a host that runs everything slower for a
// while (other tenants on the machine) does not read as a regression.
// A change to the program cannot move the probe, so the scaled times
// still move with the program's speed.
//
// It has two parts, timed separately:
//   - seq: one goroutine filling, sorting and hashing a slice; it
//     scales set-up, whose work is sequential references and inputs.
//   - par: a binary fork-join tree of goroutines joined by channels and
//     a goroutine ping-pong; it scales runs and sessions, whose work is
//     spawning, blocking and waking goroutines on every P.
type probeTime struct{ seq, par float64 } // ms

// The probe's nominal times, in ms: round figures within the range of
// its run medians on the two-vCPU host the bounds in BENCHMARK.json were
// set on, at GOMAXPROCS=2 (seq 15-19 ms, par 12-19 ms). Scaling by them
// keeps a scaled time near the raw time of a run there.
const nominalSeqMs, nominalParMs = 17, 18

// scaleSeq and scalePar turn a raw time measured next to p into a time
// at the nominal probe speed.
func (p probeTime) scaleSeq(x float64) float64 { return x * nominalSeqMs / p.seq }
func (p probeTime) scalePar(x float64) float64 { return x * nominalParMs / p.par }

var probeSink int

func probe() probeTime {
	start := time.Now()
	probeSink += probeSeq(100_000)
	mid := time.Now()
	probeSink += probeTree(13) + probePingPong(10_000)
	return probeTime{seq: ms(mid.Sub(start)), par: ms(time.Since(mid))}
}

// probeSeq fills a slice from an xorshift stream, counts a quarter of
// the values into a map and sorts the slice.
func probeSeq(n int) int {
	m := make(map[int]int)
	xs := make([]int, 0, n)
	x := uint64(88172645463325252)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		xs = append(xs, int(x%1_000_003))
		if i%4 == 0 {
			m[int(x%50_000)] += i
		}
	}
	sort.Ints(xs)
	return xs[n/2] + len(m)
}

// probeTree spawns a goroutine for one half of every node of a binary
// tree of the given depth and joins it through a channel.
func probeTree(depth int) int {
	if depth == 0 {
		return 1
	}
	ch := make(chan int, 1)
	go func() { ch <- probeTree(depth - 1) }()
	return probeTree(depth-1) + <-ch
}

// probePingPong passes a value back and forth between two goroutines n
// times over unbuffered channels.
func probePingPong(n int) int {
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	v := 0
	for i := 0; i < n; i++ {
		ping <- v
		v = <-pong
	}
	close(ping)
	<-pong
	return v
}
