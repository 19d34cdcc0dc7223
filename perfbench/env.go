package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"repro/internal/core"
)

// environment is a set-up workload: its programs with their references,
// warmed up, and, when the run serves sessions, the serving stack.
type environment struct {
	table1 bool
	progs  []*prog // the programs the paired (core) measurement runs
	srv    *server
}

// setup builds one workload's environment: inputs, sequential
// references and, when the run serves sessions (serve-* always, table1-*
// only in the traced run), the serving stack with its connections.
func setup(workload string, sh shape, seed int64, traced bool) (*environment, error) {
	env := &environment{table1: strings.HasPrefix(workload, "table1-")}
	m := &mix{}
	if env.table1 {
		progs, err := table1Programs(workload, seed)
		if err != nil {
			return nil, err
		}
		env.progs, m.progs = progs, progs
	} else {
		progs, err := mixPrograms(seed)
		if err != nil {
			return nil, err
		}
		m.progs, m.deadlocks, m.deadlock = progs, true, listing1()
		for _, p := range progs {
			if !p.fullOnly {
				env.progs = append(env.progs, p)
			}
		}
	}
	if !env.table1 || traced {
		srv, err := startServer(m, sh, seed)
		if err != nil {
			return nil, err
		}
		env.srv = srv
	}
	return env, nil
}

// warmUp runs every program once in every mode the run measures and, on
// a serving stack, both arms for a short window, so that the measured
// window starts with warm caches and pools.
func (env *environment) warmUp(traced bool) error {
	if env.table1 || traced {
		for _, p := range env.progs {
			for _, mode := range pairedModes(traced) {
				if r := runOnce(p, mode, false, nil, nil); r.err != nil {
					return r.err
				}
			}
		}
	}
	if env.srv != nil {
		for _, arm := range []string{"front", "direct"} {
			var a armStats
			a.add(env.srv.run(arm, 200*time.Millisecond, nil))
			if len(a.failures) > 0 {
				return a.failures[0]
			}
		}
	}
	return nil
}

// pairedModes are the modes a paired measurement runs: the traced run
// adds Ownership, which splits the overhead into policy and detection.
func pairedModes(traced bool) []core.Mode {
	if traced {
		return []core.Mode{core.Unverified, core.Ownership, core.Full}
	}
	return []core.Mode{core.Unverified, core.Full}
}

func (env *environment) close() {
	if env.srv != nil {
		env.srv.close()
	}
}

// pairedE2E is the untraced table1-* run.
func (env *environment) pairedE2E(d time.Duration) *outcome {
	out := newOutcome()
	res := measurePaired(env.progs, pairedModes(false), d, nil)
	out.attempted, out.failures = res.attempted, res.failures
	var ratios, tails, allocRatios []float64
	var fullAlloc, scaled, scaledTail float64
	for i, p := range env.progs {
		s := res.samples[i]
		full, unv := s.ms[core.Full], s.ms[core.Unverified]
		ratio := median(s.ratio)
		ratios = append(ratios, ratio)
		if ratio < 1 {
			out.notes = append(out.notes, fmt.Sprintf("measurement defect: %s ran faster verified than unverified (median ratio %.4f)", p.name, ratio))
		}
		tails = append(tails, quantile(full, 0.9)/quantile(unv, 0.9))
		fa := median(s.alloc[core.Full])
		allocRatios = append(allocRatios, fa/median(s.alloc[core.Unverified]))
		fullAlloc += fa
		scaled += median(s.scaled)
		scaledTail += quantile(s.scaled, 0.9)
		out.dists[p.name+"/full_ms"] = summarize(full)
		out.dists[p.name+"/unverified_ms"] = summarize(unv)
		out.dists[p.name+"/ratio"] = summarize(s.ratio)
		out.dists[p.name+"/full_ms_scaled"] = summarize(s.scaled)
		out.dists[p.name+"/full_alloc_b"] = summarize(s.alloc[core.Full])
		out.dists[p.name+"/unverified_alloc_b"] = summarize(s.alloc[core.Unverified])
	}
	out.dists["probe_par_ms"] = summarize(probeParts(res.probes))
	out.metrics["verified_ms"] = scaled
	out.metrics["verified_p90_ms"] = scaledTail
	out.metrics["time_overhead"] = geomean(ratios)
	out.metrics["tail_overhead"] = geomean(tails)
	out.metrics["verified_alloc_mb"] = fullAlloc / 1e6
	out.metrics["alloc_overhead"] = geomean(allocRatios)
	return out
}

// servedE2E is the untraced serve-* run: front and pool-direct windows
// alternate every second, half a second each, so host drift affects
// both arms alike and the ratios rest on equal sample counts. The ratios
// compare each program with itself, so they do not depend on how the
// arms' draws mixed cheap and costly programs. The probe runs before
// every front window and scales that window's latencies.
func (env *environment) servedE2E(d time.Duration) *outcome {
	out := newOutcome()
	cycles := max(2, int(d/time.Second))
	half := d / 2 / time.Duration(cycles)
	var fa, da armStats
	var scaled, probes []float64
	for i := 0; i < cycles; i++ {
		runtime.GC()
		pt := probe()
		probes = append(probes, pt.par)
		w := env.srv.run("front", half, nil)
		for _, s := range w.samples {
			if s.err == nil {
				scaled = append(scaled, pt.scalePar(s.latMs))
			}
		}
		fa.add(w)
		da.add(env.srv.run("direct", half, nil))
	}
	out.attempted = fa.attempted + da.attempted
	out.failures = append(fa.failures, da.failures...)
	for arm, a := range map[string]*armStats{"front": &fa, "direct": &da} {
		out.dists[arm+"/latency_ms"] = summarize(a.lat)
		for name, lat := range a.byProg {
			out.dists[arm+"/latency_ms/"+name] = summarize(lat)
		}
		out.notes = append(out.notes, fmt.Sprintf("%s: %.0f correct sessions/s", arm, float64(a.ok)/a.secs))
	}
	out.dists["front/latency_ms_scaled"] = summarize(scaled)
	out.dists["probe_par_ms"] = summarize(probes)
	perSession := func(a *armStats) float64 { return a.alloc / float64(a.attempted) }
	out.metrics["verified_ms"] = median(scaled)
	out.metrics["verified_p90_ms"] = quantile(scaled, 0.9)
	out.metrics["time_overhead"] = progRatio(&fa, &da, 0.5)
	out.metrics["tail_overhead"] = progRatio(&fa, &da, 0.9)
	out.metrics["verified_alloc_mb"] = perSession(&fa) / 1e6
	out.metrics["alloc_overhead"] = perSession(&fa) / perSession(&da)
	return out
}

// traced is the per-layer run: a core phase, a pool-direct phase and a
// front phase over the workload's programs, with spans recorded.
func (env *environment) traced(d time.Duration, tr *tracer) *outcome {
	out := newOutcome()
	coreShare, directShare := 0.2, 0.3
	if env.table1 {
		coreShare, directShare = 0.6, 0.2
	}
	part := func(share float64) time.Duration { return time.Duration(share * float64(d)) }

	// Core: Unverified, Ownership and Full interleaved, spans on every
	// other rep; then one counted Full run per program for exact counts.
	res := measurePaired(env.progs, pairedModes(true), part(coreShare), tr)
	out.attempted, out.failures = res.attempted, res.failures
	u := sumMedian(res, func(s *progSamples) []float64 { return s.ms[core.Unverified] }, 0.5)
	policy := sumMedian(res, func(s *progSamples) []float64 { return s.policy }, 0.5)
	detect := sumMedian(res, func(s *progSamples) []float64 { return s.detect }, 0.5)
	var counts core.Stats
	var seqMs float64
	for _, p := range env.progs {
		r := runOnce(p, core.Full, true, nil, nil)
		out.attempted++
		if r.err != nil {
			out.failures = append(out.failures, r.err)
		}
		counts.Tasks += r.stats.Tasks
		counts.Gets += r.stats.Gets
		counts.Sets += r.stats.Sets
		seqMs += p.seqMs
	}
	m := out.metrics
	m["core.ownership_ms"] = policy
	m["core.detect_ms"] = detect
	m["core.tasks"] = float64(counts.Tasks)
	m["core.gets"] = float64(counts.Gets)
	m["core.sets"] = float64(counts.Sets)
	m["core.ns_per_task"] = u * 1e6 / float64(max(counts.Tasks, 1))
	m["core.detect_ns_per_get"] = detect * 1e6 / float64(max(counts.Gets, 1))
	m["core.alloc_b_per_task"] = sumMedian(res, func(s *progSamples) []float64 { return s.alloc[core.Full] }, 0.5) / float64(max(counts.Tasks, 1))
	m["core.gc_cycles"] = sumMedian(res, func(s *progSamples) []float64 { return s.gcs }, 0.5)
	m["core.gc_pause_ms"] = sumMedian(res, func(s *progSamples) []float64 { return s.pause }, 0.5)
	m["workloads.seq_ms"] = seqMs
	out.dists["core.full_ms_spans_on"] = summarize(res.spansOn)
	out.dists["core.full_ms_spans_off"] = summarize(res.spansOff)

	// Pool-direct: exact queue and execution times, which the wire
	// carries only in whole milliseconds.
	var da armStats
	da.add(env.srv.run("direct", part(directShare), tr))

	// Front: windows alternate spans on and off, for the tracing
	// overhead of the served path.
	var fa, on, off armStats
	frontD := part(1 - coreShare - directShare)
	for i := 0; i < 6; i++ {
		wtr, arm := tr, &on
		if i%2 == 1 {
			wtr, arm = nil, &off
		}
		w := env.srv.run("front", frontD/6, wtr)
		fa.add(w)
		arm.add(w)
	}
	out.attempted += fa.attempted + da.attempted
	out.failures = append(append(out.failures, fa.failures...), da.failures...)

	m["serve.submit_us_p50"] = median(da.submit) * 1000
	m["serve.queue_ms_p50"] = median(da.queue)
	m["serve.queue_ms_p90"] = quantile(da.queue, 0.9)
	m["serve.exec_ms_p50"] = median(da.exec)
	m["serve.exec_ms_p90"] = quantile(da.exec, 0.9)
	m["serve.direct_sessions_per_s"] = float64(da.ok) / da.secs
	m["serve.rejected"] = float64(fa.rejected + da.rejected)
	m["serve.false_verdicts"] = float64(len(fa.failures) + len(da.failures) - fa.rejected - da.rejected)
	m["sched.steals_per_ksession"] = fa.perKSession(fa.pool.Steals)
	m["sched.wakes_per_ksession"] = fa.perKSession(fa.pool.Wakes)
	m["sched.thieves_per_ksession"] = fa.perKSession(fa.pool.WorkerThieves)
	m["sched.workers_spawned"] = float64(fa.pool.WorkersSpawned)
	m["front.admit_ms_p50"] = median(tr.durations("front.Client.Submit"))
	m["front.verdict_ms_p50"] = median(tr.durations("front.RemoteSession.Wait"))
	m["front.overhead_ms_p50"] = median(fa.lat) - median(da.lat)
	// The probe's raw time shows how fast the host ran; the verified
	// arm's raw rate is the unscaled counterpart of verified_ms.
	m["bench.probe_par_ms"] = median(probeParts(res.probes))
	if env.table1 {
		m["bench.trace_overhead"] = median(res.spansOn) / median(res.spansOff)
		var runs, total float64
		for _, s := range res.samples {
			for _, x := range s.ms[core.Full] {
				runs++
				total += x
			}
		}
		m["bench.results_per_s"] = runs / (total / 1000)
	} else {
		m["bench.trace_overhead"] = progRatio(&on, &off, 0.5)
		m["bench.results_per_s"] = float64(fa.ok) / fa.secs
	}
	out.dists["direct.latency_ms"] = summarize(da.lat)
	out.dists["direct.queue_ms"] = summarize(da.queue)
	out.dists["direct.exec_ms"] = summarize(da.exec)
	out.dists["front.latency_ms"] = summarize(fa.lat)
	out.dists["front.latency_ms_spans_on"] = summarize(on.lat)
	out.dists["front.latency_ms_spans_off"] = summarize(off.lat)
	return out
}
