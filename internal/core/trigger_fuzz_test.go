package core_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
)

// fuzzTriggers builds the two stateful window policies FuzzTriggerRestoreState
// restores into. The feedback trigger's short ring and saturation run
// let the fixed event sequence reach the controller and its diagnostic.
func fuzzTriggers() []core.StatefulTrigger {
	fb := core.NewFeedbackTrigger(100)
	fb.WindowEvents = 4
	fb.SaturationSteps = 2
	return []core.StatefulTrigger{fb, core.NewAdaptiveTrigger(100)}
}

// driveTrigger feeds a trigger MD latencies and exchange outcomes along
// two dimensions, reopening the window after each, and reports the
// first window that is not finite and positive.
func driveTrigger(tr core.StatefulTrigger) error {
	obs := tr.(core.Observer)
	for i := 0; i < 40; i++ {
		dim := i % 2
		obs.Observe(core.MDEvent{Start: 0, At: float64(50 + 20*(i%7))})
		obs.Observe(dimEvent(dim, i%3 == 0, i%4 == 0))
		st := core.TriggerState{Dim: dim, Pending: 1, Ready: 3, ReadyBudget: 3, Alive: 6}
		tr.Reset(st)
		if w := tr.Deadline(st); math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
			return fmt.Errorf("%s: window %v after %d steps", tr.Name(), w, i)
		}
		tr.Decide(st)
	}
	if fb, ok := tr.(*core.FeedbackTrigger); ok {
		fb.ControllerStatus()
	}
	return nil
}

// FuzzTriggerRestoreState throws arbitrary bytes at the feedback and
// adaptive triggers' RestoreState — their state arrives in checkpoint
// files, which a resume reads as untrusted input — and requires each
// either to return an error or to leave a trigger that survives a fixed
// event sequence with finite, positive windows and re-encodes to a
// state it accepts again. The corpus is seeded with real EncodeState
// output of both triggers and with the warm-up estimates that once
// turned the window into NaN.
func FuzzTriggerRestoreState(f *testing.F) {
	for _, tr := range fuzzTriggers() {
		data, err := tr.EncodeState()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		if err := driveTrigger(tr); err != nil {
			f.Fatal(err)
		}
		if data, err = tr.EncodeState(); err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"warm_n":5,"warm_mean":100,"warm_m2":-50}`))
	f.Add([]byte(`{"n":5,"mean":100,"m2":-50}`))
	f.Add([]byte(`{"outcomes":[true,false,true],"cur":120,"active":true}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		for i, tr := range fuzzTriggers() {
			if err := tr.RestoreState(data); err != nil {
				continue
			}
			if err := driveTrigger(tr); err != nil {
				t.Fatal(err)
			}
			out, err := tr.EncodeState()
			if err != nil {
				t.Fatalf("%s: encoding a restored trigger: %v", tr.Name(), err)
			}
			if err := fuzzTriggers()[i].RestoreState(out); err != nil {
				t.Fatalf("%s: trigger rejects its own state: %v", tr.Name(), err)
			}
		}
	})
}
