package core

import (
	"sync"
	"testing"
)

// sharedSummaries memoizes, per test binary, the Summarize results that
// more than one test compares against, keyed by the Config that built
// them.
var sharedSummaries struct {
	sync.Mutex
	m map[Config]*sharedSummaryEntry
}

type sharedSummaryEntry struct {
	once sync.Once
	sum  *Summary
	json []byte
	err  error
}

// sharedSummary returns the Summarize result for cfg and its JSON,
// computed once per test binary: the first caller's compute runs, and
// later callers wait for it and share the result. compute must return
// the Summarize of a System built from cfg, and the result is read-only.
// Share only an unobserved configuration that two tests compare as the
// very same value; every other arm is computed fresh.
func sharedSummary(t *testing.T, cfg Config, compute func() *Summary) (*Summary, []byte) {
	t.Helper()
	if cfg.Obs != nil || cfg.Audit != nil {
		t.Fatal("sharedSummary: an observed configuration is never a shared reference")
	}
	sharedSummaries.Lock()
	if sharedSummaries.m == nil {
		sharedSummaries.m = map[Config]*sharedSummaryEntry{}
	}
	e := sharedSummaries.m[cfg]
	if e == nil {
		e = &sharedSummaryEntry{}
		sharedSummaries.m[cfg] = e
	}
	sharedSummaries.Unlock()
	e.once.Do(func() {
		e.sum = compute()
		e.json, e.err = e.sum.JSON()
	})
	if e.err != nil {
		t.Fatal(e.err)
	}
	return e.sum, e.json
}
