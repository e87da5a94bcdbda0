package kernel

import (
	"fmt"

	"smartbalance/internal/arch"
)

// TraceKind enumerates observable scheduling events.
type TraceKind int

// Trace event kinds.
const (
	TraceSpawn    TraceKind = iota // task created
	TraceSlice                     // a timeslice completed (context switch)
	TraceSleep                     // task entered a sleep/wait period
	TraceWake                      // task became runnable again
	TraceMigrate                   // task changed cores
	TraceFinish                    // task exited
	TraceEpoch                     // balancer epoch boundary
	TraceCoreIdle                  // core entered the quiescent state
	TraceCoreBusy                  // core left the quiescent state
)

// String names the kind.
func (k TraceKind) String() string {
	switch k {
	case TraceSpawn:
		return "spawn"
	case TraceSlice:
		return "slice"
	case TraceSleep:
		return "sleep"
	case TraceWake:
		return "wake"
	case TraceMigrate:
		return "migrate"
	case TraceFinish:
		return "finish"
	case TraceEpoch:
		return "epoch"
	case TraceCoreIdle:
		return "core-idle"
	case TraceCoreBusy:
		return "core-busy"
	default:
		return fmt.Sprintf("TraceKind(%d)", int(k))
	}
}

// TraceEvent is one observable scheduling event.
type TraceEvent struct {
	At   Time
	Kind TraceKind
	// Core is the event's core (for migrations, the destination); -1
	// when not core-specific (epochs).
	Core arch.CoreID
	// Thread is the involved task; -1 for core/epoch events.
	Thread ThreadID
	// DurNs carries the slice length for TraceSlice and the sleep
	// length for TraceSleep.
	DurNs int64
	// Instr carries retired instructions for TraceSlice.
	Instr uint64
}

// String renders the event compactly.
func (e TraceEvent) String() string {
	switch e.Kind {
	case TraceSlice:
		return fmt.Sprintf("%9.3fms %-9s core=%d tid=%d dur=%.3fms instr=%d",
			float64(e.At)/1e6, e.Kind, e.Core, e.Thread, float64(e.DurNs)/1e6, e.Instr)
	case TraceEpoch:
		return fmt.Sprintf("%9.3fms %-9s", float64(e.At)/1e6, e.Kind)
	default:
		return fmt.Sprintf("%9.3fms %-9s core=%d tid=%d", float64(e.At)/1e6, e.Kind, e.Core, e.Thread)
	}
}

// Observer receives scheduling events as they occur. Observers must not
// call back into the kernel.
type Observer func(TraceEvent)

// AddObserver installs an additional trace observer and returns its
// slot id for RemoveObserver. Observers compose: every event fans out
// to all installed observers in installation order, so a telemetry
// collector and a raw-event tail (for example) can watch the same
// kernel without fighting over a single hook.
func (k *Kernel) AddObserver(o Observer) int {
	if o == nil {
		return -1
	}
	k.observers = append(k.observers, o)
	return len(k.observers) - 1
}

// RemoveObserver uninstalls the observer with the given slot id;
// unknown and negative ids are ignored. Slot ids are not reused, so a
// stale id can never detach a later observer.
func (k *Kernel) RemoveObserver(id int) {
	if id < 0 || id >= len(k.observers) {
		return
	}
	k.observers[id] = nil
}

// emit delivers an event to every installed observer.
func (k *Kernel) emit(e TraceEvent) {
	for _, o := range k.observers {
		if o != nil {
			o(e)
		}
	}
}
