package main

import (
	"math/rand"
	"testing"
	"time"
)

func TestSelfTest(t *testing.T) {
	if err := selfTest(); err != nil {
		t.Fatal(err)
	}
}

// TestServedWindow drives both arms with spans on, from several
// workers at once, and checks every verdict and the Deadlock share.
func TestServedWindow(t *testing.T) {
	env, err := setup("serve-saturated", workloadShapes["serve-saturated"], 1, false)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	tr := newTracer()
	for _, arm := range []string{"front", "direct"} {
		var a armStats
		a.add(env.srv.run(arm, 300*time.Millisecond, tr))
		if len(a.failures) > 0 || a.ok == 0 {
			t.Fatalf("%s: %d ok, failures %v", arm, a.ok, a.failures)
		}
	}
	if len(tr.durations("front.Client.Submit")) == 0 || len(tr.selfTimes()) == 0 {
		t.Fatal("no spans recorded")
	}
}

func TestDeckShares(t *testing.T) {
	progs, err := mixPrograms(1)
	if err != nil {
		t.Fatal(err)
	}
	d := &deck{m: &mix{progs: progs, deadlocks: true}, rng: rand.New(rand.NewSource(1))}
	counts := map[string]int{}
	for i := 0; i < 64*10; i++ {
		counts[d.next().name]++
	}
	if counts["Deadlock"] != 80 {
		t.Fatalf("Deadlock drawn %d times in 640, want 80", counts["Deadlock"])
	}
	for _, p := range progs {
		if counts[p.name] != 70 {
			t.Fatalf("%s drawn %d times in 640, want 70", p.name, counts[p.name])
		}
	}
}

// TestDeclaredMetrics checks that BENCHMARK.json parses and that every
// per-layer metric it declares names the end-to-end metric it moves.
func TestDeclaredMetrics(t *testing.T) {
	e2e, err := declaredUnits("../BENCHMARK.json", false)
	if err != nil {
		t.Fatal(err)
	}
	if e2e["setup_s"] != "s" || e2e["verified_ms"] != "ms" {
		t.Fatalf("end-to-end units %v", e2e)
	}
	layers, err := declaredUnits("../BENCHMARK.json", true)
	if err != nil {
		t.Fatal(err)
	}
	for name := range layers {
		if layerMoves[name] == "" {
			t.Errorf("%s: no entry in layerMoves", name)
		}
	}
	if err := checkDeclared(map[string]float64{"verified_ms": 1}, e2e); err == nil {
		t.Fatal("a run missing declared metrics passed checkDeclared")
	}
}
