package mpi

// Class-level execution of uniform collective loops: the harness fold.
// A benchmark loop whose every call is the same buffer-free collective on
// the full world communicator keeps the world symmetric from one call to
// the next, so the event engine's fold (fold.go) would gather every rank,
// resolve the invocation per equivalence class and fan the exit clocks back
// out — per call, on one coroutine per rank. RunUniform drops the ranks
// altogether: a Uniform holds the world's state as a partition of ranks
// into classes with one clock and one symbolic link-busy object per class,
// and each call runs the same shape analysis and the same per-class
// recurrence (foldShape.recur) as a folded invocation, without a gather, a
// token scan or a fan-out.
//
// Entering a call, the ranks are split by (structural class of the call's
// shape, class before the call) and refined to the shape's peer fixpoint,
// exactly like the entry tokens of a folded invocation; every member of a
// class therefore holds identical clock and link state, and the recurrence
// performs the float64 operations of the per-rank path in the same order.
// Partition transitions are memoized per (partition, shape), so a steady
// loop costs O(classes x steps) per call.
//
// Anything the fold would not resolve — an unfoldable shape, a partition
// above foldMaxClasses, live link state of another peer-delta family, or
// a world on which schedule folding is off — is refused with ErrNotUniform
// before the call changes any state, and the caller reruns the loop on
// World.Run, the per-rank oracle.

import (
	"errors"

	"repro/internal/vtime"
)

// ErrNotUniform is the refusal of a class-level run: the world or the call
// cannot be resolved per class, and the caller must run it per rank.
var ErrNotUniform = errors.New("mpi: call not resolvable at class level")

// Invocation is one buffer-free full-world collective call of a class-level
// run, built by the *Call constructors, which mirror the *N entry points.
type Invocation struct {
	key  shapeKey
	sel  Selection
	call collCall
	bad  bool // the *N entry would reject the call
}

// BarrierCall is Comm.Barrier.
func BarrierCall() Invocation { return Invocation{key: shapeKey{coll: collBarrier}} }

// AllreduceCall is Comm.AllreduceN with nil buffers.
func AllreduceCall(n int, dt DType, op Op) Invocation {
	return Invocation{key: shapeKey{coll: CollAllreduce, n: n, dt: dt, op: op},
		sel:  Selection{Bytes: n, Elems: n / dt.Size()},
		call: collCall{n: n, dt: dt, op: op}, bad: n%dt.Size() != 0}
}

// AllgatherCall is Comm.AllgatherN with nil buffers.
func AllgatherCall(n int) Invocation {
	return Invocation{key: shapeKey{coll: CollAllgather, n: n},
		sel: Selection{Bytes: n}, call: collCall{n: n}}
}

// AlltoallCall is Comm.AlltoallN with nil buffers.
func AlltoallCall(n int) Invocation {
	return Invocation{key: shapeKey{coll: CollAlltoall, n: n},
		sel: Selection{Bytes: n}, call: collCall{n: n}}
}

// Uniform is the state of a class-level run: a partition of the world's
// ranks into classes, with one virtual clock and one symbolic link-busy
// object per class. It is used from one goroutine, inside RunUniform.
type Uniform struct {
	w *World
	// cls maps rank to class; nil while every rank is in class 0.
	cls    []int32
	clock  []vtime.Micros
	lb     []*foldLB
	parent []int32
	trans  map[uniformTransKey]*uniformTrans
	tokOf  []int32
	pairs  pairTable
}

// uniformTransKey names one partition transition: the entry partition (by
// the identity of its rank-to-class slice, nil for the single class after
// ResetClocks) under one shape.
type uniformTransKey struct {
	from *int32
	sh   *foldShape
}

// uniformTrans is the refined partition of one transition and the class
// each new class came from.
type uniformTrans struct {
	cls              []int32
	costIdx          []int32
	sendCls, recvCls [][]int32
	parent           []int32
}

// RunUniform runs body on a class-level view of the world, starting from
// ResetClocks state. It refuses with ErrNotUniform, before body runs, on
// any world whose collectives the event engine would not fold (goroutine
// engine, folding off, a fault plan, a trace recorder, or a size out of the
// fold's range); body's calls refuse the same way. The world's ranks, Procs
// and mailboxes are not touched, so the world can Run afterwards.
func (w *World) RunUniform(body func(u *Uniform) error) error {
	if w.cfg.Engine != EngineEvent || !w.schedFoldOK {
		return ErrNotUniform
	}
	u := &Uniform{w: w}
	u.ResetClocks()
	return body(u)
}

// ResetClocks is Proc.ResetClock on every rank: one class at clock zero with
// free wires.
func (u *Uniform) ResetClocks() {
	u.cls = nil
	u.clock = append(u.clock[:0], 0)
	u.lb = append(u.lb[:0], nil)
	u.parent = u.parent[:0]
}

// Classes returns the number of classes of the current partition.
func (u *Uniform) Classes() int { return len(u.clock) }

// Clock returns the virtual clock every rank of class i holds.
func (u *Uniform) Clock(i int) vtime.Micros { return u.clock[i] }

// Parent returns the class that class i belonged to before the last Invoke;
// a call only ever splits classes.
func (u *Uniform) Parent(i int) int { return int(u.parent[i]) }

// ClassOf returns the class of world rank r.
func (u *Uniform) ClassOf(r int) int {
	if u.cls == nil {
		return 0
	}
	return int(u.cls[r])
}

// Prepare resolves the call's shape without running it, through the same
// per-world and process-wide caches as a folded invocation, so a caller can
// refuse a whole loop up front instead of after a wasted prefix.
func (u *Uniform) Prepare(inv Invocation) error {
	_, err := u.shape(inv)
	return err
}

// Invoke runs one call on every rank: the class-level twin of the call's *N
// entry point on the world communicator.
func (u *Uniform) Invoke(inv Invocation) error {
	sh, err := u.shape(inv)
	if err != nil {
		return err
	}
	for i, f := range u.lb {
		// Live state of the other peer-delta family would materialize per
		// rank (fold.go); its slots differ member by member.
		if f != nil && f.kind != sh.kind && foldEntriesLive(f, u.clock[i]) {
			return ErrNotUniform
		}
	}
	t, err := u.transition(sh)
	if err != nil {
		return err
	}
	w := u.w
	ncls, nslots := len(t.parent), sh.nslots
	scr := &w.foldScratch
	scr.growClasses(ncls, nslots)
	for i, par := range t.parent {
		scr.clock[i] = u.clock[par]
		seeds := scr.lb[i*nslots : (i+1)*nslots]
		clear(seeds)
		sh.overlaySeeds(u.lb[par], scr.clock[i], seeds)
		scr.entryLB[i] = u.lb[par]
	}
	sh.recur(scr, ncls, t.costIdx, t.sendCls, t.recvCls, false, w.size, w.cfg.PyMode)
	slab := sh.exitLB(scr, ncls)
	u.clock = append(u.clock[:0], scr.clock[:ncls]...)
	u.lb = u.lb[:0]
	for i := range slab {
		u.lb = append(u.lb, &slab[i])
	}
	u.cls, u.parent = t.cls, t.parent
	w.foldStats.Folded++
	return nil
}

// shape resolves the call's analyzed shape, refusing unfoldable ones.
func (u *Uniform) shape(inv Invocation) (*foldShape, error) {
	w := u.w
	if inv.bad {
		return nil, ErrNotUniform
	}
	sh := w.foldShapes[inv.key]
	if sh == nil {
		sel := inv.sel
		sel.CommSize = w.size
		sh = w.buildFoldShapeProbe(inv.key, sel, inv.call)
		w.rememberShape(inv.key, sh)
	}
	if !sh.ok {
		return nil, ErrNotUniform
	}
	return sh, nil
}

// transition returns the partition the call runs on from the current one.
func (u *Uniform) transition(sh *foldShape) (*uniformTrans, error) {
	key := uniformTransKey{sh: sh}
	if u.cls != nil {
		key.from = &u.cls[0]
	}
	if t := u.trans[key]; t != nil {
		return t, nil
	}
	t, err := u.buildTransition(sh)
	if err != nil {
		return nil, err
	}
	if u.trans == nil {
		u.trans = make(map[uniformTransKey]*uniformTrans, 8)
	}
	u.trans[key] = t
	return t, nil
}

// buildTransition splits the ranks by (structural class, current class) and
// refines the result to the shape's peer fixpoint, reusing the shape's
// structural tables or its cached partitions where the pattern matches.
func (u *Uniform) buildTransition(sh *foldShape) (*uniformTrans, error) {
	if u.cls == nil {
		return u.newTrans(sh.class, sh.identIdx, sh.sendCls, sh.recvCls, sh.reps), nil
	}
	p := u.w.size
	tokOf := foldGrowI32(u.tokOf, p)
	u.tokOf = tokOf
	u.pairs.reset(len(u.clock))
	for r := 0; r < p; r++ {
		tokOf[r] = u.pairs.intern(sh.class[r], u.cls[r])
	}
	if foldI32Equal(tokOf, sh.class) {
		return u.newTrans(sh.class, sh.identIdx, sh.sendCls, sh.recvCls, sh.reps), nil
	}
	var part *foldPartition
	for _, cand := range sh.parts {
		if foldI32Equal(cand.tok, tokOf) {
			part = cand
			break
		}
	}
	if part == nil {
		if part = sh.buildPartition(tokOf, int(u.pairs.n)); part == nil {
			return nil, ErrNotUniform
		}
		if len(sh.parts) >= foldMaxPartitions {
			sh.parts = sh.parts[:0]
		}
		sh.parts = append(sh.parts, part)
	}
	return u.newTrans(part.cls, part.costIdx, part.sendCls, part.recvCls, part.reps), nil
}

// newTrans wraps a refined partition as a transition from the current one;
// each class's representative names the class it came from.
func (u *Uniform) newTrans(cls, costIdx []int32, sendCls, recvCls [][]int32, reps []int32) *uniformTrans {
	t := &uniformTrans{cls: cls, costIdx: costIdx, sendCls: sendCls, recvCls: recvCls,
		parent: make([]int32, len(reps))}
	if u.cls != nil {
		for i, rep := range reps {
			t.parent[i] = u.cls[rep]
		}
	}
	return t
}
