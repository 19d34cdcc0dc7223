package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/front"
	"repro/internal/serve"
	"repro/internal/workloads"
)

// poolSlots and queueDepth size every serving pool the benchmark starts:
// two session slots, and a queue deep enough that the saturated shape
// (eight sessions in flight) is never rejected.
const (
	poolSlots  = 2
	queueDepth = 8
	benchKey   = "bench-key"
)

// shape is a closed-loop load: conns connections, each with perConn
// sessions in flight; a worker submits its next session only after the
// previous verdict.
type shape struct{ conns, perConn int }

func (s shape) workers() int { return s.conns * s.perConn }

// mix is a workload's traffic: its programs and, when deadlocks is set,
// the paper's Listing 1 as 1 draw in 8.
type mix struct {
	progs     []*prog
	deadlocks bool
	deadlock  core.TaskFunc
}

// draw is one drawn session.
type draw struct {
	name         string
	main         func() core.TaskFunc
	wantDeadlock bool
}

// deck is one worker's draw sequence: every program seven times and, in
// a mix with deadlocks, Listing 1 once per program (one card in 8),
// reshuffled from the worker's seeded stream each time it runs out. Dealing whole
// decks keeps every window's program shares close to the mix's, so
// arms and runs are compared on the same traffic.
type deck struct {
	m     *mix
	rng   *rand.Rand
	cards []int // indices into m.progs; -1 is Listing 1
}

func (d *deck) next() draw {
	if len(d.cards) == 0 {
		for i := range d.m.progs {
			d.cards = append(d.cards, i, i, i, i, i, i, i)
			if d.m.deadlocks {
				d.cards = append(d.cards, -1)
			}
		}
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[len(d.cards)-1]
	d.cards = d.cards[:len(d.cards)-1]
	if c < 0 {
		return draw{name: "Deadlock", main: func() core.TaskFunc { return d.m.deadlock }, wantDeadlock: true}
	}
	p := d.m.progs[c]
	return draw{name: p.name, main: func() core.TaskFunc { return p.root(new(uint64)) }}
}

// registry serves the mix's programs, built from the benchmark's seed,
// under their names.
func (m *mix) registry() front.Registry {
	reg := front.Registry{"Deadlock": func(workloads.Scale) core.TaskFunc { return m.deadlock }}
	for _, p := range m.progs {
		reg[p.name] = func(workloads.Scale) core.TaskFunc { return p.root(new(uint64)) }
	}
	return reg
}

// checkVerdict is the served-output check: Listing 1 must be convicted
// of a deadlock, every other session must come back clean.
func checkVerdict(name string, got serve.Verdict, wantDeadlock bool) error {
	want := serve.VerdictClean
	if wantDeadlock {
		want = serve.VerdictDeadlock
	}
	if got != want {
		return fmt.Errorf("%s: verdict %s, want %s", name, got, want)
	}
	return nil
}

// sample is one session as a client saw it.
type sample struct {
	name     string  // the drawn program
	latMs    float64 // Submit call to verdict received
	submitMs float64 // the Submit call, up to its admission answer
	queueMs  float64 // pool-direct only: exact admission wait
	execMs   float64 // pool-direct only: exact execution time
	rejected bool
	err      error // nil when the session was accepted and its verdict correct
}

// server is the serving stack of one run: a front on loopback with its
// clients, and a second pool for the pool-direct arm.
type server struct {
	front   *front.Front
	clients []*front.Client
	direct  *serve.Pool
	decks   map[string][]*deck
	ids     atomic.Uint64
}

func poolOptions() []serve.Option {
	return []serve.Option{serve.WithMaxSessions(poolSlots), serve.WithQueueDepth(queueDepth),
		serve.WithRuntime(core.WithDetector(core.DetectLockFree))}
}

func startServer(m *mix, sh shape, seed int64) (*server, error) {
	f, err := front.New(front.Config{
		Addr:     "127.0.0.1:0",
		Keys:     map[string]string{benchKey: "bench"},
		Registry: m.registry(),
		Serve:    poolOptions(),
	})
	if err != nil {
		return nil, err
	}
	s := &server{front: f, direct: serve.New(poolOptions()...), decks: map[string][]*deck{}}
	for i := 0; i < sh.conns; i++ {
		c, err := front.Dial(f.Addr(), benchKey)
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	// Each arm's workers deal from their own seeded decks, so the draw
	// order and the Deadlock placement depend only on the seed.
	for a, arm := range []string{"front", "direct"} {
		for w := 0; w < sh.workers(); w++ {
			rng := rand.New(rand.NewSource(seed*1000 + int64(a*100+w)))
			s.decks[arm] = append(s.decks[arm], &deck{m: m, rng: rng})
		}
	}
	return s, nil
}

func (s *server) close() {
	for _, c := range s.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.front.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: front shutdown:", err)
	}
	s.direct.Close()
}

// viaFront runs one session through the front: Client.Submit, then
// RemoteSession.Wait.
func (s *server) viaFront(w int, d draw, tr *tracer) sample {
	id := s.ids.Add(1)
	root := tr.begin("bench.session/front", nil, id)
	defer root.finish()
	c := s.clients[w%len(s.clients)]
	sub := tr.begin("front.Client.Submit", root, id)
	start := time.Now()
	rs, err := c.Submit(context.Background(), front.SubmitRequest{Workload: d.name})
	admitted := time.Since(start)
	sub.finish()
	if err != nil {
		return sample{rejected: true, err: fmt.Errorf("%s: front submit: %w", d.name, err)}
	}
	wait := tr.begin("front.RemoteSession.Wait", root, id)
	rs.Wait()
	lat := time.Since(start)
	wait.finish()
	return sample{name: d.name, latMs: ms(lat), submitMs: ms(admitted), err: checkVerdict(d.name, rs.Verdict(), d.wantDeadlock)}
}

// viaPool runs the same session straight into a serve.Pool:
// Pool.Submit, then Session.Wait.
func (s *server) viaPool(w int, d draw, tr *tracer) sample {
	id := s.ids.Add(1)
	root := tr.begin("bench.session/direct", nil, id)
	defer root.finish()
	sub := tr.begin("serve.Pool.Submit", root, id)
	start := time.Now()
	sess, err := s.direct.Submit(context.Background(), d.name, d.main())
	admitted := time.Since(start)
	sub.finish()
	if err != nil {
		return sample{rejected: true, err: fmt.Errorf("%s: pool submit: %w", d.name, err)}
	}
	wait := tr.begin("serve.Session.Wait", root, id)
	sess.Wait()
	lat := time.Since(start)
	wait.finish()
	return sample{name: d.name, latMs: ms(lat), submitMs: ms(admitted), queueMs: ms(sess.QueueLatency()), execMs: ms(sess.Duration()),
		err: checkVerdict(d.name, sess.Verdict(), d.wantDeadlock)}
}

// window is one closed-loop window of one arm.
type window struct {
	samples []sample
	secs    float64
	alloc   float64 // bytes allocated by the whole process in the window
	pool    serve.PoolStats
}

// run drives arm ("front" or "direct") closed-loop for d and returns the
// window. Workers stop submitting at the deadline and wait for their
// last verdict, which the window still counts.
func (s *server) run(arm string, d time.Duration, tr *tracer) window {
	do, pool := s.viaFront, s.front.Pool()
	if arm == "direct" {
		do, pool = s.viaPool, s.direct
	}
	decks := s.decks[arm]
	per := make([][]sample, len(decks))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p0 := pool.Stats()
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for w := range decks {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for time.Now().Before(end) {
				per[w] = append(per[w], do(w, decks[w].next(), tr))
			}
		}(w)
	}
	wg.Wait()
	win := window{secs: time.Since(start).Seconds()}
	runtime.ReadMemStats(&m1)
	win.alloc = float64(m1.TotalAlloc - m0.TotalAlloc)
	win.pool = poolDelta(pool.Stats(), p0)
	for _, ss := range per {
		win.samples = append(win.samples, ss...)
	}
	return win
}

func poolDelta(a, b serve.PoolStats) serve.PoolStats {
	return serve.PoolStats{
		Completed:      a.Completed - b.Completed,
		WorkersSpawned: a.WorkersSpawned - b.WorkersSpawned,
		WorkerThieves:  a.WorkerThieves - b.WorkerThieves,
		Steals:         a.Steals - b.Steals,
		Wakes:          a.Wakes - b.Wakes,
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// armStats pools the windows of one arm.
type armStats struct {
	lat, submit, queue, exec []float64
	byProg                   map[string][]float64 // latencies per drawn program
	ok, attempted            int
	rejected                 int
	failures                 []error
	secs, alloc              float64
	pool                     serve.PoolStats
}

func (a *armStats) add(w window) {
	a.secs += w.secs
	a.alloc += w.alloc
	a.pool.Completed += w.pool.Completed
	a.pool.WorkersSpawned += w.pool.WorkersSpawned
	a.pool.WorkerThieves += w.pool.WorkerThieves
	a.pool.Steals += w.pool.Steals
	a.pool.Wakes += w.pool.Wakes
	for _, s := range w.samples {
		a.attempted++
		if s.rejected {
			a.rejected++
		}
		if s.err != nil {
			a.failures = append(a.failures, s.err)
			continue
		}
		a.ok++
		a.lat = append(a.lat, s.latMs)
		if a.byProg == nil {
			a.byProg = map[string][]float64{}
		}
		a.byProg[s.name] = append(a.byProg[s.name], s.latMs)
		a.submit = append(a.submit, s.submitMs)
		a.queue = append(a.queue, s.queueMs)
		a.exec = append(a.exec, s.execMs)
	}
}

func (a *armStats) perKSession(x int64) float64 {
	return 1000 * float64(x) / float64(max(a.pool.Completed, 1))
}

// progRatio is the geometric mean, over the programs both arms served,
// of the ratio of a's q-quantile latency to b's. Comparing each program
// with itself keeps the ratio independent of how the two arms' draws
// happened to mix cheap and costly programs.
func progRatio(a, b *armStats, q float64) float64 {
	var rs []float64
	for name, xs := range a.byProg {
		if ys := b.byProg[name]; len(ys) > 0 {
			rs = append(rs, quantile(xs, q)/quantile(ys, q))
		}
	}
	return geomean(rs)
}
