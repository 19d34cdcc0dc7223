package main

import (
	"runtime"
	"time"

	"repro/internal/core"
)

// measured is one measured Runtime.Run.
type measured struct {
	ms      float64
	alloc   float64 // bytes allocated during the run (TotalAlloc delta)
	gcs     float64
	pauseMs float64
	stats   core.Stats
	err     error // a failed output check
}

// runOnce runs p once in mode, timing only Runtime.Run. The GC before
// the run starts it on a clean heap; the GC after it collects the run's
// garbage, so the run's GC cycles and pause include that collection.
func runOnce(p *prog, mode core.Mode, counting bool, tr *tracer, parent *span) measured {
	var out uint64
	root := p.root(&out)
	rt := core.NewRuntime(core.WithMode(mode), core.WithDetector(core.DetectLockFree), core.WithEventCounting(counting))
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	sp := tr.begin("core.Runtime.Run/"+mode.String(), parent, 0)
	start := time.Now()
	err := rt.Run(root)
	el := time.Since(start)
	sp.finish()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	r := measured{
		ms:      ms(el),
		alloc:   float64(m1.TotalAlloc - m0.TotalAlloc),
		gcs:     float64(m1.NumGC - m0.NumGC),
		pauseMs: float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6,
		stats:   rt.Stats(),
	}
	r.err = p.check(out, r.stats, err)
	return r
}

// progSamples holds one program's per-rep samples.
type progSamples struct {
	ms    map[core.Mode][]float64
	alloc map[core.Mode][]float64
	ratio []float64 // per-rep Full/Unverified time
	// scaled is the per-rep Full time at the nominal probe speed.
	scaled []float64
	// policy and detect are the per-rep Ownership-Unverified and
	// Full-Ownership times, when the reps run Ownership mode.
	policy, detect []float64
	gcs            []float64 // per Full run
	pause          []float64 // per Full run, ms
}

// pairedResult is the outcome of a paired measurement.
type pairedResult struct {
	samples   []*progSamples
	spansOn   []float64 // per-rep Full time summed over programs, spans on
	spansOff  []float64 // the same, spans off
	probes    []probeTime
	attempted int
	failures  []error
}

// measurePaired runs reps until the deadline. A rep runs the probe, then,
// per program, every mode back to back after a GC each, so host drift
// cancels within the rep's Full/Unverified pair and the rep's Full times
// can be scaled by its probe. Rep r rotates the mode order by r (and
// by the program index), so each mode runs first equally often. modes
// must include Full and Unverified. With a tracer, spans are recorded on
// every other rep, which yields the tracing overhead from the same run.
func measurePaired(progs []*prog, modes []core.Mode, d time.Duration, tr *tracer) *pairedResult {
	res := &pairedResult{}
	for range progs {
		res.samples = append(res.samples, &progSamples{ms: map[core.Mode][]float64{}, alloc: map[core.Mode][]float64{}})
	}
	deadline := time.Now().Add(d)
	for rep := 0; rep < 2 || time.Now().Before(deadline); rep++ {
		var rtr *tracer
		if rep%2 == 1 {
			rtr = tr
		}
		runtime.GC()
		pt := probe()
		res.probes = append(res.probes, pt)
		repSpan := rtr.begin("bench.rep", nil, 0)
		var fullMs float64
		for pi, p := range progs {
			s := res.samples[pi]
			byMode := map[core.Mode]measured{}
			for k := range modes {
				m := modes[(rep+k+pi)%len(modes)]
				r := runOnce(p, m, false, rtr, repSpan)
				res.attempted++
				if r.err != nil {
					res.failures = append(res.failures, r.err)
					continue
				}
				byMode[m] = r
				s.ms[m] = append(s.ms[m], r.ms)
				s.alloc[m] = append(s.alloc[m], r.alloc)
			}
			f, okF := byMode[core.Full]
			u, okU := byMode[core.Unverified]
			if okF && okU {
				s.ratio = append(s.ratio, f.ms/u.ms)
				s.scaled = append(s.scaled, pt.scalePar(f.ms))
				if o, ok := byMode[core.Ownership]; ok {
					s.policy = append(s.policy, o.ms-u.ms)
					s.detect = append(s.detect, f.ms-o.ms)
				}
				s.gcs = append(s.gcs, f.gcs)
				s.pause = append(s.pause, f.pauseMs)
			}
			fullMs += f.ms
		}
		repSpan.finish()
		if rep%2 == 1 {
			res.spansOn = append(res.spansOn, fullMs)
		} else {
			res.spansOff = append(res.spansOff, fullMs)
		}
	}
	return res
}

// sumMedian sums, over programs, the median of each program's samples.
func sumMedian(res *pairedResult, pick func(*progSamples) []float64, q float64) float64 {
	var sum float64
	for _, s := range res.samples {
		sum += quantile(pick(s), q)
	}
	return sum
}

// probeParts returns the par part of each probe time.
func probeParts(ps []probeTime) []float64 {
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = p.par
	}
	return out
}
