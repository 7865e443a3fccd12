package main

import (
	"sync/atomic"

	"disttrack"
)

// timedStore is the traced run's persistence seam: it records a span for
// every call the coordinator makes into the store, and counts appended
// frames and bytes.
type timedStore struct {
	disttrack.PersistStore
	tr      *tracer
	appends atomic.Int64
	bytes   atomic.Int64
}

func (s *timedStore) AppendWAL(frame []byte) error {
	t0 := s.tr.now()
	err := s.PersistStore.AppendWAL(frame)
	s.tr.add("persist.append", 0, 0, t0)
	s.appends.Add(1)
	s.bytes.Add(int64(len(frame)))
	return err
}

func (s *timedStore) WriteSnapshot(snap []byte) error {
	t0 := s.tr.now()
	err := s.PersistStore.WriteSnapshot(snap)
	s.tr.add("persist.snapshot", 0, 0, t0)
	return err
}

func (s *timedStore) Sync() error {
	t0 := s.tr.now()
	err := s.PersistStore.Sync()
	s.tr.add("persist.sync", 0, 0, t0)
	return err
}

// report sets the persist metrics of a traced pass. The busy share is the
// time inside the store over the pass's ingest time. The deterministic
// frequency coordinator cannot snapshot, so on freq-det-wal the store only
// ever appends: snapshots read 0 there by design, not by omission.
func (s *timedStore) report(e *env, spans []span, p pass) {
	e.set("persist.append_per_kelem", perK(s.appends.Load(), p.elems))
	e.set("persist.append_bytes_per_elem", per(float64(s.bytes.Load()), float64(p.elems)))
	a := summarize(layerSamples(spans, nil, "persist.append", false), 0.99)
	e.set("persist.append_us_p50", a.P50)
	e.set("persist.append_us_p99", a.Tail)
	busy := layerTotal(spans, "persist.append") + layerTotal(spans, "persist.snapshot")
	e.set("persist.busy_frac", per(busy.Seconds(), p.ingest.Seconds()))
	e.set("persist.snapshots", float64(p.m.Snapshots))
	snaps := layerSamples(spans, nil, "persist.snapshot", false)
	if len(snaps) > 0 {
		e.set("persist.snapshot_ms_p99", summarize(snaps, 0.99).Tail/1e3)
	}
	e.set("persist.sync_ms", ms(layerTotal(spans, "persist.sync")))
	e.detail("persist_append_us", a)
	e.detail("persist_snapshot_spans", len(snaps))
}
