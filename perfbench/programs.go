package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/front"
	"repro/internal/workloads"
	"repro/internal/workloads/heat"
	"repro/internal/workloads/microfan"
	"repro/internal/workloads/ppsim"
	"repro/internal/workloads/qsort"
	"repro/internal/workloads/randomized"
	"repro/internal/workloads/sieve"
	"repro/internal/workloads/smithwaterman"
	"repro/internal/workloads/strassen"
	"repro/internal/workloads/streamcluster"
)

// prog is one program the benchmark runs, with its expected output.
type prog struct {
	name string
	// root returns a fresh root task that stores the program's result in
	// *out. Input generation the program does outside Run happens here,
	// before any clock starts.
	root func(out *uint64) core.TaskFunc
	// want is the sequential reference result. wantTasks, when non-zero,
	// replaces it for a program without a sequential reference: the
	// generator's task count, checked against Runtime.Stats.
	want      uint64
	wantTasks int64
	// fullOnly marks a program measured only in Full mode (see mixPrograms).
	fullOnly bool
	// seqMs is the time the sequential reference took, 0 if it has none.
	seqMs float64
}

// check compares one run's output with the reference.
func (p *prog) check(got uint64, st core.Stats, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("%s: run failed: %w", p.name, err)
	case p.wantTasks != 0 && st.Tasks != p.wantTasks:
		return fmt.Errorf("%s: %d tasks, generator made %d", p.name, st.Tasks, p.wantTasks)
	case p.wantTasks == 0 && got != p.want:
		return fmt.Errorf("%s: result %d, sequential reference %d", p.name, got, p.want)
	}
	return nil
}

// newProg times the sequential reference and returns the program.
func newProg(name string, seq func() uint64, run func(*core.Task) (uint64, error)) *prog {
	start := time.Now()
	want := seq()
	return &prog{name: name, want: want, seqMs: ms(time.Since(start)), root: func(out *uint64) core.TaskFunc {
		return func(t *core.Task) error {
			v, err := run(t)
			*out = v
			return err
		}
	}}
}

// randomizedProg is the paper's random promise graph. It has no
// sequential reference; the generator's task count, which randomized.Run
// returns, is taken from one unverified run.
func randomizedProg(cfg randomized.Config) (*prog, error) {
	var n uint64
	rt := core.NewRuntime(core.WithMode(core.Unverified))
	err := rt.Run(func(t *core.Task) (err error) {
		n, err = randomized.Run(t, cfg)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("Randomized: reference run: %w", err)
	}
	return &prog{name: "Randomized", wantTasks: int64(n), root: func(*uint64) core.TaskFunc { return randomized.Main(cfg) }}, nil
}

// table1Programs are a table1-* workload's programs at default scale.
func table1Programs(workload string, seed int64) ([]*prog, error) {
	switch workload {
	case "table1-block":
		sv := sieve.Default()
		rc := randomized.Default()
		rc.Seed = seed
		rp, err := randomizedProg(rc)
		if err != nil {
			return nil, err
		}
		return []*prog{
			newProg("Sieve", func() uint64 { return sieve.RunSequential(sv) },
				func(t *core.Task) (uint64, error) { return sieve.Run(t, sv) }),
			rp,
		}, nil
	case "table1-spawn":
		sw := smithwaterman.Default()
		sw.Seed = seed
		st := strassen.Default()
		st.Seed = seed
		return []*prog{
			newProg("SmithWaterman", func() uint64 { return smithwaterman.RunSequential(sw) },
				func(t *core.Task) (uint64, error) { return smithwaterman.Run(t, sw) }),
			newProg("Strassen", func() uint64 { return strassen.RunSequential(st) },
				func(t *core.Task) (uint64, error) { return strassen.Run(t, st) }),
		}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// mixPrograms are the served mix's programs at small scale. MicroFan is
// not a paper program, and its unverified arm has a known wrong-checksum
// race, so it is served (Full mode) but never run in the other modes.
func mixPrograms(seed int64) ([]*prog, error) {
	hc := heat.Small()
	qc := qsort.Small()
	qc.Seed = seed
	rc := randomized.Small()
	rc.Seed = seed
	swc := smithwaterman.Small()
	swc.Seed = seed
	stc := strassen.Small()
	stc.Seed = seed
	scc := streamcluster.Small()
	scc.Seed = seed
	pc := ppsim.Small()
	pc.Seed = seed
	mc := microfan.Small()
	rp, err := randomizedProg(rc)
	if err != nil {
		return nil, err
	}
	mf := newProg("MicroFan", func() uint64 { return microfan.RunSequential(mc) },
		func(t *core.Task) (uint64, error) { return microfan.Run(t, mc) })
	mf.fullOnly = true
	return []*prog{
		newProg("Heat", func() uint64 { return heat.RunSequential(hc) },
			func(t *core.Task) (uint64, error) { return heat.Run(t, hc) }),
		newProg("QSort", func() uint64 { return qsort.RunSequential(qc) },
			func(t *core.Task) (uint64, error) { return qsort.Run(t, qc) }),
		rp,
		newProg("SmithWaterman", func() uint64 { return smithwaterman.RunSequential(swc) },
			func(t *core.Task) (uint64, error) { return smithwaterman.Run(t, swc) }),
		newProg("Strassen", func() uint64 { return strassen.RunSequential(stc) },
			func(t *core.Task) (uint64, error) { return strassen.Run(t, stc) }),
		newProg("StreamCluster", func() uint64 { return streamcluster.RunSequential(scc) },
			func(t *core.Task) (uint64, error) { return streamcluster.Run(t, scc) }),
		newProg("PPSim", func() uint64 { return census(ppsim.RunSequential(pc)) },
			func(t *core.Task) (uint64, error) {
				p, err := ppsim.Run(t, pc)
				return census(p), err
			}),
		mf,
	}, nil
}

// census folds a PPSim population into one comparable value.
func census(p ppsim.Pop) uint64 {
	var h uint64
	for _, n := range p {
		h = h*1_000_003 + uint64(n)
	}
	return h
}

// listing1 is the paper's Listing 1, the served mix's deadlock, taken
// from the front's default registry.
func listing1() core.TaskFunc { return front.DefaultRegistry()["Deadlock"](workloads.ScaleSmall) }
