package telemetry

import (
	"smartbalance/internal/kernel"
)

// Attach wires c into a kernel run: it installs KernelObserver(c) and,
// when the kernel's balancer accepts a collector (the SmartBalance
// controller, bare or thermally wrapped), hands it c for its per-phase
// spans, health gauges and anomaly triggers. It returns the observer's
// slot for Kernel.RemoveObserver.
func Attach(k *kernel.Kernel, c *Collector) int {
	id := k.AddObserver(KernelObserver(c))
	if sink, ok := k.Balancer().(interface{ SetTelemetry(*Collector) }); ok {
		sink.SetTelemetry(c)
	}
	return id
}

// KernelObserver adapts a Collector to the kernel's trace-observer
// hook, and is the one place kernel scheduling events are aggregated:
// every event increments a per-kind counter, slices additionally feed
// the instruction, slice-time and per-core slice (context-switch)
// counters, migrations count arrivals per destination core, and epoch
// boundaries open the collector's next epoch record, numbered from 1 in
// kernel order. It is the one epoch announcer of a kernel run: the
// TraceEvent precedes the balancer's Rebalance, so the controller's
// spans land in the record opened here. The returned observer composes
// with any number of others through Kernel.AddObserver.
//
// Handles are resolved once (per-core ones on a core's first event)
// and cached, so the per-event cost is array indexing, not map lookups.
func KernelObserver(c *Collector) kernel.Observer {
	if c == nil {
		return func(kernel.TraceEvent) {}
	}
	kinds := []kernel.TraceKind{
		kernel.TraceSpawn, kernel.TraceSlice, kernel.TraceSleep,
		kernel.TraceWake, kernel.TraceMigrate, kernel.TraceFinish,
		kernel.TraceEpoch, kernel.TraceCoreIdle, kernel.TraceCoreBusy,
	}
	byKind := make([]*Counter, len(kinds))
	for _, k := range kinds {
		byKind[int(k)] = c.Counter(Name("kernel_events_total", "kind", k.String()))
	}
	instr := c.Counter("kernel_instructions_total")
	sliceNs := c.Counter("kernel_slice_ns_total")
	coreSlices := perCore(c, "kernel_core_slices_total")
	coreMigrations := perCore(c, "kernel_core_migrations_total")
	epoch := 0
	return func(e kernel.TraceEvent) {
		if int(e.Kind) < len(byKind) && byKind[int(e.Kind)] != nil {
			byKind[int(e.Kind)].Inc()
		}
		switch e.Kind {
		case kernel.TraceSlice:
			instr.Add(int64(e.Instr))
			sliceNs.Add(e.DurNs)
			if e.Core >= 0 {
				coreSlices(int(e.Core)).Inc()
			}
		case kernel.TraceMigrate:
			if e.Core >= 0 {
				coreMigrations(int(e.Core)).Inc()
			}
		case kernel.TraceEpoch:
			epoch++
			c.BeginEpoch(epoch, int64(e.At))
		}
	}
}

// perCore returns a resolver for the family's core-labelled counters.
// A core's counter is registered on its first event, so a core that
// never saw one stays absent from the snapshot.
func perCore(c *Collector, family string) func(core int) *Counter {
	var handles []*Counter
	return func(core int) *Counter {
		for core >= len(handles) {
			handles = append(handles, nil)
		}
		if handles[core] == nil {
			handles[core] = c.Counter(Name(family, "core", itoa(core)))
		}
		return handles[core]
	}
}
