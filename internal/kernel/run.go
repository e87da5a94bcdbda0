package kernel

import (
	"errors"
	"fmt"

	"smartbalance/internal/arch"
)

// kick wakes a sleeping core so it can dispatch newly enqueued work.
// Sleep time and gated leakage energy are accounted on exit from the
// quiescent state.
func (k *Kernel) kick(c arch.CoreID) {
	cr := &k.cores[c]
	if !cr.sleeping {
		return
	}
	k.accountSleep(cr, k.now)
	cr.sleeping = false
	k.emit(TraceEvent{At: k.now, Kind: TraceCoreBusy, Core: c, Thread: -1})
	k.dispatch(c)
}

// accountSleep closes the core's quiescent interval at time t.
func (k *Kernel) accountSleep(cr *coreRun, t Time) {
	dur := t - cr.sleepStart
	if dur <= 0 {
		return
	}
	tid := k.plat.TypeID(cr.id)
	e := k.mach.PowerModels().ForType(tid).SleepW() * float64(dur) * 1e-9
	cr.sleepNs += dur
	cr.energyJ += e
	_ = k.bank.RecordSleep(int(cr.id), dur, e)
	k.mach.RecordSleep(cr.id, dur)
}

// dispatch picks and starts the next task on core c, or puts the core
// to sleep when the runqueue is empty. It must only be called when the
// core has no current task.
func (k *Kernel) dispatch(c arch.CoreID) {
	cr := &k.cores[c]
	if cr.current != nil {
		return // already running; the slice-end event will re-dispatch
	}
	t := k.pickNext(c)
	if t == nil {
		if !cr.sleeping {
			cr.sleeping = true
			cr.sleepStart = k.now
			k.emit(TraceEvent{At: k.now, Kind: TraceCoreIdle, Core: c, Thread: -1})
		}
		return
	}
	t.taskState = StateRunning
	t.pelt.Transition(k.now, true, true)
	cr.current = t
	// pickNext just removed t from the queue and current is nil, so t
	// is never accounted here.
	slice := k.timesliceCounted(t, c, false)
	debt := t.migrationDebt
	if max := k.horizon - k.now - debt; slice > max {
		slice = max
	}
	if slice <= 0 {
		// Horizon reached: park the task back on the runqueue; the core
		// stays awake (current == nil, not sleeping) and is re-dispatched
		// if Run is called again with a later horizon.
		t.taskState = StateRunnable
		cr.current = nil
		cr.runqWeight += t.weight
		k.rqInsert(cr, t)
		return
	}
	t.migrationDebt = 0
	if err := k.mach.ExecSliceOnCore(&cr.pending, t.state, c, slice); err != nil {
		// Impossible for a non-finished task and positive slice; fail
		// loudly rather than corrupt accounting.
		panic(fmt.Sprintf("kernel: ExecSlice: %v", err)) //sbvet:allow hotpath(formats only while crashing on corrupt accounting)
	}
	r := &cr.pending
	if debt > 0 {
		// Cold-cache debt after migration: stall time at idle-activity
		// power before the slice proper.
		ph := t.state.CurrentPhase()
		tid := k.plat.TypeID(c)
		r.EnergyJ += k.mach.PowerModels().ForType(tid).BusyPower(0, ph) * float64(debt) * 1e-9
		r.CyclesIdle += uint64(float64(debt) * k.plat.Type(c).FreqMHz / 1000)
		r.RunNs += debt
	}
	endAt := k.now + r.RunNs
	if endAt <= k.now {
		endAt = k.now + 1
	}
	k.events.armSlice(c, endAt)
}

// handleSliceEnd performs context-switch accounting for the slice that
// just expired on core c, then re-dispatches. A core's slice end is
// armed only by dispatch while it has a current task and consumed only
// here, so the event always finds that task still current.
func (k *Kernel) handleSliceEnd(c arch.CoreID) {
	cr := &k.cores[c]
	t := cr.current
	cr.current = nil
	cr.switches++
	res := &cr.pending
	dur := res.RunNs

	// Counter sampling at schedule() granularity (Section 5.1).
	_ = k.bank.RecordSlice(int(t.ID), int(c), res.Counters)

	k.emit(TraceEvent{At: k.now, Kind: TraceSlice, Core: c, Thread: t.ID, DurNs: dur, Instr: res.Instructions})

	cr.busyNs += dur
	cr.instr += res.Instructions
	cr.energyJ += res.EnergyJ
	t.totalRunNs += dur
	t.epochRunNs += dur
	t.totalInstr += res.Instructions
	t.totalEnergyJ += res.EnergyJ
	t.chargeVruntime(dur)

	// Apply a pending migration requested while the task ran.
	dst := t.core
	if t.pendingCore >= 0 {
		dst = t.pendingCore
		t.pendingCore = -1
		if dst != t.core {
			t.migrations++
			k.migrations++
			t.migrationDebt = k.cfg.MigrationPenaltyNs
			k.emit(TraceEvent{At: k.now, Kind: TraceMigrate, Core: dst, Thread: t.ID})
		}
	}

	switch {
	case res.Finished:
		t.taskState = StateFinished
		t.finishedAt = k.now
		t.accrueRunnable(k.now)
		t.pelt.Transition(k.now, false, false)
		k.exited = append(k.exited, t.ID) //sbvet:allow hotpath(exit backlog drains at every epoch boundary; capacity reaches one epoch's exits and is reused)
		k.emit(TraceEvent{At: k.now, Kind: TraceFinish, Core: c, Thread: t.ID})
	case res.SleepNs > 0:
		t.taskState = StateSleeping
		t.core = dst
		t.accrueRunnable(k.now)
		t.pelt.Transition(k.now, false, false)
		k.emit(TraceEvent{At: k.now, Kind: TraceSleep, Core: dst, Thread: t.ID, DurNs: res.SleepNs})
		k.events.pushWakeup(k.now+res.SleepNs, t.ID)
	default:
		t.pelt.Transition(k.now, true, false)
		k.enqueue(t, dst)
		if dst != c {
			k.kick(dst)
		}
	}
	k.dispatch(c)
}

// handleWakeup returns a sleeping task to its core's runqueue.
func (k *Kernel) handleWakeup(id ThreadID) {
	t := k.taskByID(id)
	if t == nil || t.taskState != StateSleeping {
		return
	}
	t.runnableSince = k.now
	t.pelt.Transition(k.now, true, false)
	k.emit(TraceEvent{At: k.now, Kind: TraceWake, Core: t.core, Thread: t.ID})
	k.enqueue(t, t.core)
	k.kick(t.core)
}

// handleEpoch snapshots the epoch's sensing data, invokes the balancer
// (the reimplemented rebalance_domains()), and resets per-epoch state.
//
//sbvet:hotpath
func (k *Kernel) handleEpoch() {
	k.epochs++
	k.emit(TraceEvent{At: k.now, Kind: TraceEpoch, Core: -1, Thread: -1})
	// Flush in-progress quiescent intervals so the epoch sample sees
	// them (the running slices' counters land in the next epoch, as on
	// real hardware where counters are read at context switch).
	for i := range k.cores {
		cr := &k.cores[i]
		if cr.sleeping {
			k.accountSleep(cr, k.now)
			cr.sleepStart = k.now
		}
	}
	// Flush runnable-time and tracked-load accounting so the balancer
	// sees up-to-date utilisation, and compact the tasks that exited
	// since the last boundary out of the live list in place: spawn
	// order is kept, and nothing allocates.
	live := 0
	for _, t := range k.live {
		if t.taskState == StateFinished {
			continue
		}
		if t.taskState == StateRunnable || t.taskState == StateRunning {
			t.accrueRunnable(k.now)
			t.runnableSince = k.now
		}
		t.pelt.Observe(k.now)
		k.live[live] = t
		live++
	}
	k.live = k.live[:live]
	threads, cores := k.bank.Snapshot()
	// Slots of tasks that exited during the epoch are reclaimed now that
	// their final slices are safely copied into the snapshot arenas.
	for _, id := range k.exited {
		k.bank.ReleaseThread(int(id))
	}
	k.exited = k.exited[:0]
	if k.cfg.Faults != nil {
		// Sensor faults degrade only what the balancer observes; the
		// true samples above already fed the kernel's own accounting.
		threads, cores = k.cfg.Faults.FilterEpoch(k.epochs, k.now, threads, cores)
	}
	k.balancer.Rebalance(k, k.now, threads, cores)
	for _, t := range k.live {
		t.epochRunNs = 0
		t.epochRunnableNs = 0
	}
	k.nextEpoch += k.cfg.EpochNs
}

// accrueRunnable adds the elapsed runnable interval ending at now.
func (t *Task) accrueRunnable(now Time) {
	if d := now - t.runnableSince; d > 0 {
		t.epochRunnableNs += d
	}
	t.runnableSince = now
}

// Run advances the simulation until the given absolute time. It may be
// called repeatedly with increasing horizons; state (queues, sleeping
// tasks, pending wakeups) carries over.
func (k *Kernel) Run(until Time) error {
	if until <= k.now {
		return errors.New("kernel: Run horizon not in the future")
	}
	k.horizon = until
	k.placeFresh = false
	// (Re-)dispatch cores that have queued work but no running slice —
	// initial spawns before the first Run, or cores parked at a previous
	// horizon.
	for i := range k.cores {
		cr := &k.cores[i]
		if cr.current == nil && cr.runqHead < len(cr.runq) {
			if cr.sleeping {
				k.kick(arch.CoreID(i))
			} else {
				k.dispatch(arch.CoreID(i))
			}
		}
	}

	for {
		// Epoch ticks interleave deterministically with queue events;
		// ties resolve in favour of the already-queued event, matching a
		// timer interrupt arriving after the context switch completes.
		// So every event due at or before the next tick (and the
		// horizon) drains first, and the tick fires once none is left.
		limit := until
		if k.nextEpoch < limit {
			limit = k.nextEpoch
		}
		e, ok := k.events.popUntil(limit)
		if !ok {
			if k.nextEpoch > until {
				break
			}
			k.now = k.nextEpoch
			k.handleEpoch()
			continue
		}
		if e.at > k.now {
			k.now = e.at
		}
		switch e.kind {
		case evSliceEnd:
			k.handleSliceEnd(e.core)
		case evWakeup:
			k.handleWakeup(e.task)
		}
	}
	// Close the horizon: account sleep up to `until` on quiescent cores.
	k.now = until
	for i := range k.cores {
		cr := &k.cores[i]
		if cr.sleeping {
			k.accountSleep(cr, until)
			cr.sleepStart = until
		}
	}
	return nil
}
