package cluster

import (
	"context"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"pcaps/internal/carbon"
	"pcaps/internal/carbonapi"
)

func deTrace(t testing.TB) *carbon.Trace {
	t.Helper()
	spec, err := carbon.GridByName("DE")
	if err != nil {
		t.Fatal(err)
	}
	return carbon.Synthesize(spec, 3000, 60, 17)
}

func TestResourceQuota(t *testing.T) {
	q := NewResourceQuota(PaperExecutorShape, 10)
	if q.MaxExecutors() != 10 {
		t.Fatalf("MaxExecutors = %d", q.MaxExecutors())
	}
	if got := q.Admit(4); got != 4 {
		t.Fatalf("Admit(4) = %d", got)
	}
	if got := q.Admit(8); got != 6 {
		t.Fatalf("Admit(8) = %d, want 6 (clamped)", got)
	}
	if got := q.Admit(1); got != 0 {
		t.Fatalf("Admit at capacity = %d", got)
	}
	// Shrinking the quota never evicts: usage stays at 10.
	q.SetMaxExecutors(3)
	if q.Used() != 10 {
		t.Fatalf("Used after shrink = %d", q.Used())
	}
	if got := q.Admit(1); got != 0 {
		t.Fatalf("Admit under shrunk quota = %d", got)
	}
	q.Release(8)
	if q.Used() != 2 {
		t.Fatalf("Used after release = %d", q.Used())
	}
	if got := q.Admit(5); got != 1 {
		t.Fatalf("Admit after release = %d, want 1 (3-2)", got)
	}
	q.Release(100)
	if q.Used() != 0 {
		t.Fatalf("over-release not clamped: %d", q.Used())
	}
	q.SetMaxExecutors(-5)
	if q.MaxExecutors() != 0 {
		t.Fatalf("negative quota not clamped: %d", q.MaxExecutors())
	}
}

func TestQuotaDaemonAgainstHTTPAPI(t *testing.T) {
	tr := deTrace(t)
	srv := httptest.NewServer(carbonapi.NewServer(map[string]*carbon.Trace{"DE": tr}))
	defer srv.Close()

	now := 0.0
	q := NewResourceQuota(PaperExecutorShape, 100)
	d := &QuotaDaemon{
		Client: carbonapi.NewClient(srv.URL),
		Grid:   "DE",
		K:      100, B: 20,
		Quota: q,
		Now:   func() float64 { return now },
	}
	ctx := context.Background()

	// Find a high-carbon and a low-carbon hour in the first two days.
	hiAt, loAt := 0.0, 0.0
	hi, lo := math.Inf(-1), math.Inf(1)
	for sec := 0.0; sec < 48*60; sec += 60 {
		v := tr.At(sec)
		if v > hi {
			hi, hiAt = v, sec
		}
		if v < lo {
			lo, loAt = v, sec
		}
	}

	now = hiAt
	quotaHi, err := d.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	now = loAt
	quotaLo, err := d.Step(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if quotaHi >= quotaLo {
		t.Fatalf("quota at high carbon (%d) not below quota at low carbon (%d)", quotaHi, quotaLo)
	}
	if quotaHi < 20 || quotaLo > 100 {
		t.Fatalf("quotas out of range: %d, %d", quotaHi, quotaLo)
	}
	if q.MaxExecutors() != quotaLo {
		t.Fatalf("quota object holds %d, want %d", q.MaxExecutors(), quotaLo)
	}
	if d.LastQuota() != quotaLo {
		t.Fatalf("LastQuota = %d", d.LastQuota())
	}
}

func TestQuotaDaemonErrors(t *testing.T) {
	d := &QuotaDaemon{}
	if _, err := d.Step(context.Background()); err == nil {
		t.Fatal("unconfigured daemon accepted")
	}
	srv := httptest.NewServer(carbonapi.NewServer(map[string]*carbon.Trace{}))
	defer srv.Close()
	d = &QuotaDaemon{
		Client: carbonapi.NewClient(srv.URL),
		Grid:   "NOPE",
		K:      10, B: 2,
		Quota: NewResourceQuota(PaperExecutorShape, 10),
		Now:   func() float64 { return 0 },
	}
	if _, err := d.Step(context.Background()); err == nil {
		t.Fatal("unknown grid accepted")
	}
}

func TestQuotaDaemonRunLoop(t *testing.T) {
	tr := deTrace(t)
	srv := httptest.NewServer(carbonapi.NewServer(map[string]*carbon.Trace{"DE": tr}))
	defer srv.Close()
	q := NewResourceQuota(PaperExecutorShape, 100)
	d := &QuotaDaemon{
		Client: carbonapi.NewClient(srv.URL),
		Grid:   "DE",
		K:      100, B: 20,
		Quota: q,
		Now:   func() float64 { return 0 },
		Poll:  time.Millisecond,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := d.Run(ctx)
	if err != context.DeadlineExceeded {
		t.Fatalf("Run returned %v, want deadline exceeded", err)
	}
	if d.LastQuota() < 20 || d.LastQuota() > 100 {
		t.Fatalf("daemon never installed a quota: %d", d.LastQuota())
	}
	if q.MaxExecutors() != d.LastQuota() {
		t.Fatalf("quota object %d != daemon decision %d", q.MaxExecutors(), d.LastQuota())
	}
}

func TestQuotaDaemonClampsB(t *testing.T) {
	tr := deTrace(t)
	srv := httptest.NewServer(carbonapi.NewServer(map[string]*carbon.Trace{"DE": tr}))
	defer srv.Close()
	d := &QuotaDaemon{
		Client: carbonapi.NewClient(srv.URL),
		Grid:   "DE",
		K:      10, B: 99, // B > K must clamp, not error
		Quota: NewResourceQuota(PaperExecutorShape, 10),
		Now:   func() float64 { return 0 },
	}
	quota, err := d.Step(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if quota != 10 {
		t.Fatalf("clamped quota = %d, want 10", quota)
	}
	d.B = 0 // below 1 must clamp to 1
	if _, err := d.Step(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestResourceQuotaMemoryBound(t *testing.T) {
	// A quota can be memory-bound rather than CPU-bound.
	shape := ExecutorShape{CPUMillis: 1000, MemoryMB: 1024}
	q := NewResourceQuota(shape, 4)
	// Manually shrink only memory by rebuilding with a tighter shape
	// ratio: 4 pods of CPU but memory for 2.
	q.mu.Lock()
	q.hardMem = 2 * shape.MemoryMB
	q.mu.Unlock()
	if got := q.MaxExecutors(); got != 2 {
		t.Fatalf("memory-bound MaxExecutors = %d, want 2", got)
	}
	if got := q.Admit(0); got != 0 {
		t.Fatalf("Admit(0) = %d", got)
	}
	if got := q.Admit(-3); got != 0 {
		t.Fatalf("Admit(-3) = %d", got)
	}
}
