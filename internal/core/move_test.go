package core

import (
	"errors"
	"fmt"
	"slices"
	"testing"
)

// countingMovable is a composite Movable that counts its Promises calls
// and, like most collections, builds a fresh slice on every call.
type countingMovable struct {
	ps    []AnyPromise
	calls *int
}

func (m countingMovable) Promises() []AnyPromise {
	*m.calls++
	return slices.Clone(m.ps)
}

// spawnPath is one spawn entry point that moves promises, reduced to
// "spawn body as a child of tk, moving moved".
type spawnPath struct {
	name  string
	spawn func(tk *Task, body TaskFunc, moved ...Movable) error
}

func spawnPaths() []spawnPath {
	return []spawnPath{
		{"Async", func(tk *Task, body TaskFunc, moved ...Movable) error {
			_, err := tk.Async(body, moved...)
			return err
		}},
		{"AsyncInline", func(tk *Task, body TaskFunc, moved ...Movable) error {
			_, err := tk.AsyncInline(body, moved...)
			return err
		}},
		{"AsyncBatch", func(tk *Task, body TaskFunc, moved ...Movable) error {
			_, err := tk.AsyncBatch([]SpawnSpec{{Body: body, Moved: moved}})
			return err
		}},
	}
}

// ownedIDs returns the IDs of the promises tk currently owns, in order.
func ownedIDs(tk *Task) []uint64 {
	var ids []uint64
	for _, ap := range tk.OwnedPromises() {
		ids = append(ids, ap.ID())
	}
	return ids
}

// TestMovePromisesCalledOncePerSpawn: every spawn path expands a
// composite moved set exactly once — one Promises call per composite per
// spawn, serving both validation and transfer — and never mutates the
// slice it got.
func TestMovePromisesCalledOncePerSpawn(t *testing.T) {
	for _, path := range spawnPaths() {
		t.Run(path.name, func(t *testing.T) {
			rt := NewRuntime(WithMode(Full))
			err := run(t, rt, func(tk *Task) error {
				a, b := NewPromiseNamed[int](tk, "a"), NewPromiseNamed[int](tk, "b")
				d := NewPromiseNamed[int](tk, "direct")
				calls := 0
				m := countingMovable{ps: []AnyPromise{a, b}, calls: &calls}
				body := func(c *Task) error {
					for _, p := range []*Promise[int]{a, b, d} {
						if e := p.Set(c, 1); e != nil {
							return e
						}
					}
					return nil
				}
				if e := path.spawn(tk, body, d, m); e != nil {
					return e
				}
				if calls != 1 {
					return fmt.Errorf("Promises called %d times by one spawn, want 1", calls)
				}
				if m.ps[0] != AnyPromise(a) || m.ps[1] != AnyPromise(b) {
					return errors.New("the spawn mutated the composite's promise list")
				}
				for _, p := range []*Promise[int]{a, b, d} {
					if _, e := p.Get(tk); e != nil {
						return e
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMoveBatchCallsEachSpecOnce: AsyncBatch keeps each spec's expansion
// between its validate-all and transfer-all passes, so every spec's
// composite is expanded exactly once.
func TestMoveBatchCallsEachSpecOnce(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		var specs []SpawnSpec
		var proms []*Promise[int]
		calls := make([]int, 4)
		for i := range calls {
			p, q := NewPromise[int](tk), NewPromise[int](tk)
			proms = append(proms, p, q)
			specs = append(specs, SpawnSpec{
				Body: func(c *Task) error {
					if e := p.Set(c, i); e != nil {
						return e
					}
					return q.Set(c, i)
				},
				Moved: []Movable{countingMovable{ps: []AnyPromise{p, q}, calls: &calls[i]}},
			})
		}
		if _, e := tk.AsyncBatch(specs); e != nil {
			return e
		}
		for i, n := range calls {
			if n != 1 {
				return fmt.Errorf("spec %d: Promises called %d times, want 1", i, n)
			}
		}
		for _, p := range proms {
			if _, e := p.Get(tk); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMoveDuplicatesSkipped pins first-listing-wins: a promise listed
// several times in one spawn — directly, inside a composite, and twice
// inside one composite — lands in the child's owned list once and leaves
// the parent's, in every list-tracking mode.
func TestMoveDuplicatesSkipped(t *testing.T) {
	for _, kind := range []OwnedTracking{TrackList, TrackListLazy} {
		for _, path := range spawnPaths() {
			t.Run(fmt.Sprint(kind, "/", path.name), func(t *testing.T) {
				rt := NewRuntime(WithMode(Full), WithOwnedTracking(kind))
				err := run(t, rt, func(tk *Task) error {
					p, q := NewPromiseNamed[int](tk, "p"), NewPromiseNamed[int](tk, "q")
					keep := NewPromiseNamed[int](tk, "keep")
					calls := 0
					dup := countingMovable{ps: []AnyPromise{q, p, q}, calls: &calls}
					var childOwned []uint64
					body := func(c *Task) error {
						childOwned = ownedIDs(c)
						if e := p.Set(c, 1); e != nil {
							return e
						}
						return q.Set(c, 2)
					}
					if e := path.spawn(tk, body, p, dup, p); e != nil {
						return e
					}
					if got, want := ownedIDs(tk), []uint64{keep.ID()}; !slices.Equal(got, want) {
						return fmt.Errorf("parent owns %v after the spawn, want %v", got, want)
					}
					for _, pr := range []*Promise[int]{p, q} {
						if _, e := pr.Get(tk); e != nil {
							return e
						}
					}
					if want := []uint64{p.ID(), q.ID()}; !slices.Equal(childOwned, want) {
						return fmt.Errorf("child owned %v, want %v", childOwned, want)
					}
					return keep.Set(tk, 3)
				})
				if err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// TestMoveBatchDuplicatesAcrossSpecs: a promise listed by two specs goes
// to the earlier spec's child only; the later child owns just the rest of
// its own set.
func TestMoveBatchDuplicatesAcrossSpecs(t *testing.T) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		p, q, r := NewPromiseNamed[int](tk, "p"), NewPromiseNamed[int](tk, "q"), NewPromiseNamed[int](tk, "r")
		calls := 0
		owned := make([][]uint64, 2)
		if _, e := tk.AsyncBatch([]SpawnSpec{
			{Body: func(c *Task) error {
				owned[0] = ownedIDs(c)
				if e := p.Set(c, 1); e != nil {
					return e
				}
				return q.Set(c, 2)
			}, Moved: []Movable{p, q}},
			{Body: func(c *Task) error {
				owned[1] = ownedIDs(c)
				return r.Set(c, 3)
			}, Moved: []Movable{countingMovable{ps: []AnyPromise{q, r, p}, calls: &calls}}},
		}); e != nil {
			return e
		}
		for _, pr := range []*Promise[int]{p, q, r} {
			if _, e := pr.Get(tk); e != nil {
				return e
			}
		}
		if want := []uint64{p.ID(), q.ID()}; !slices.Equal(owned[0], want) {
			return fmt.Errorf("first child owned %v, want %v", owned[0], want)
		}
		if want := []uint64{r.ID()}; !slices.Equal(owned[1], want) {
			return fmt.Errorf("second child owned %v, want %v", owned[1], want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMoveForeignInCompositeRejected: a composite holding one promise the
// spawner does not own is rejected on every spawn path before any owner
// changes — the spawner keeps all of its own promises, in its owned list
// too, and the foreign promise keeps its owner.
func TestMoveForeignInCompositeRejected(t *testing.T) {
	for _, path := range spawnPaths() {
		t.Run(path.name, func(t *testing.T) {
			rt := NewRuntime(WithMode(Full))
			err := run(t, rt, func(tk *Task) error {
				a, b := NewPromiseNamed[int](tk, "a"), NewPromiseNamed[int](tk, "b")
				foreign := NewPromiseNamed[int](tk, "foreign")
				release := NewPromiseNamed[int](tk, "release")
				holder, e := tk.AsyncNamed("holder", func(c *Task) error {
					if _, e := release.Get(c); e != nil {
						return e
					}
					return foreign.Set(c, 1)
				}, foreign)
				if e != nil {
					return e
				}
				before := ownedIDs(tk)
				calls := 0
				m := countingMovable{ps: []AnyPromise{a, foreign, b}, calls: &calls}
				started := false
				e = path.spawn(tk, func(*Task) error { started = true; return nil }, m)
				var oe *OwnershipError
				if !errors.As(e, &oe) || oe.Op != "move" {
					return fmt.Errorf("spawn moving a foreign promise returned %v, want a move OwnershipError", e)
				}
				if started {
					return errors.New("the rejected child ran")
				}
				if a.Owner() != tk || b.Owner() != tk {
					return errors.New("a rejected spawn moved the spawner's own promises")
				}
				if foreign.Owner() != holder {
					return errors.New("a rejected spawn changed the foreign promise's owner")
				}
				if after := ownedIDs(tk); !slices.Equal(after, before) {
					return fmt.Errorf("spawner's owned list %v after the rejected spawn, want %v", after, before)
				}
				for _, p := range []*Promise[int]{a, b, release} {
					if e := p.Set(tk, 0); e != nil {
						return e
					}
				}
				_, e = foreign.Get(tk)
				return e
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMoveAllocs pins the transfer's allocation budget: moving a
// k-promise composite allocates the composite's own Promises slice plus
// the child's owned list, whatever k is; moving one promise directly
// allocates only the owned list. The parent's list is refilled between
// iterations (its capacity is warm), and the child's is reset to nil so
// each iteration pays its one allocation. The race detector's
// instrumentation changes escape analysis, so the counts are pinned only
// in normal builds.
func TestMoveAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, k := range []int{1, 2, 7, 64, 500} {
		t.Run(fmt.Sprint("composite-", k), func(t *testing.T) {
			checkMoveAllocs(t, k, true, 2)
		})
	}
	t.Run("direct", func(t *testing.T) { checkMoveAllocs(t, 1, false, 1) })
}

func checkMoveAllocs(t *testing.T, k int, composite bool, want float64) {
	rt := NewRuntime(WithMode(Full))
	err := run(t, rt, func(tk *Task) error {
		proms := make([]*Promise[int], k)
		ps := make([]AnyPromise, k)
		for i := range proms {
			proms[i] = NewPromise[int](tk)
			ps[i] = proms[i]
		}
		calls := 0
		moved := []Movable{proms[0]}
		if composite {
			moved = []Movable{countingMovable{ps: ps, calls: &calls}}
		}
		child := rt.newTask("probe", tk) // never started: only its owned list is used
		var moveErr error
		got := testing.AllocsPerRun(200, func() {
			child.owned = nil
			if e := tk.moveTo(child, moved); e != nil {
				moveErr = e
				return
			}
			for _, ap := range child.owned {
				ap.state().owner.Store(tk)
				tk.noteOwned(ap)
			}
		})
		if moveErr != nil {
			return moveErr
		}
		if got != want {
			return fmt.Errorf("moving %d promise(s) (composite %v): %v allocs, want %v", k, composite, got, want)
		}
		for _, p := range proms {
			if e := p.Set(tk, 0); e != nil {
				return e
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
