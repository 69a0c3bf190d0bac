package anonymizer

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"github.com/reversecloak/reversecloak/internal/anonymizer/tenant"
	"github.com/reversecloak/reversecloak/internal/roadnet"
)

// authFixture grants the spread of profiles the tests exercise: a
// full-access tenant, a reduce-capped one and a tightly metered one.
const authFixture = `{
  "tenants": [
    {"name": "alpha", "token": "a-token", "capabilities": ["anonymize", "reduce", "deregister", "operator"]},
    {"name": "capped", "token": "c-token", "capabilities": ["reduce"], "reduce_floor": 2},
    {"name": "meter", "token": "m-token", "capabilities": ["anonymize"], "rate": 0.001, "burst": 2}
  ]
}`

// startTenantServer starts a tenant-enabled server over the given
// registry JSON.
func startTenantServer(t *testing.T, raw string, opts ...ServerOption) (*Server, string, *tenant.Registry) {
	t.Helper()
	reg, err := tenant.FromJSON([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	g, density := testGrid(t)
	srv := newTestServer(t, g, density, append(opts, WithTenants(reg))...)
	return srv, startTestServer(t, srv), reg
}

func TestAuthGate(t *testing.T) {
	_, addr, _ := startTenantServer(t, authFixture)
	c := dial(t, addr)

	// Ping is open; everything else demands authentication first.
	if err := c.Ping(); err != nil {
		t.Fatalf("unauthenticated ping: %v", err)
	}
	_, _, err := c.Anonymize(42, testProfile(), "RGE")
	if !errors.Is(err, ErrAuthRequired) {
		t.Fatalf("unauthenticated anonymize = %v, want ErrAuthRequired", err)
	}
	if !errors.Is(err, ErrRemote) {
		t.Fatal("trust-boundary rejections must still match ErrRemote")
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Code != CodeAuthRequired {
		t.Fatalf("want RemoteError code %q, got %#v", CodeAuthRequired, err)
	}

	if err := c.Auth("alpha", "bad-token"); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("bad token = %v, want ErrAuthFailed", err)
	}
	if err := c.Auth("alpha", "a-token"); err != nil {
		t.Fatalf("Auth: %v", err)
	}
	id, _, err := c.Anonymize(42, testProfile(), "RGE")
	if err != nil {
		t.Fatalf("authenticated anonymize: %v", err)
	}
	if err := c.Deregister(id); err != nil {
		t.Fatalf("authenticated deregister: %v", err)
	}
}

func TestCapabilityDenied(t *testing.T) {
	_, addr, _ := startTenantServer(t, authFixture)

	owner := dial(t, addr)
	if err := owner.Auth("alpha", "a-token"); err != nil {
		t.Fatal(err)
	}
	prof := testProfile()
	prof.Levels = append(prof.Levels, prof.Levels[1]) // 3 levels
	prof.Levels[2].K = 20
	id, _, err := owner.Anonymize(42, prof, "RGE")
	if err != nil {
		t.Fatal(err)
	}
	if err := owner.SetTrust(id, "partner", 0); err != nil {
		t.Fatal(err)
	}

	capped := dial(t, addr)
	if err := capped.Auth("capped", "c-token"); err != nil {
		t.Fatal(err)
	}
	// Registering cloaks needs a capability the tenant lacks.
	if _, _, err := capped.Anonymize(42, testProfile(), "RGE"); !errors.Is(err, ErrDenied) {
		t.Fatalf("anonymize without the capability = %v, want ErrDenied", err)
	}
	// Reductions above the floor work; below it (or "as entitled", or raw
	// keys) are denied.
	if _, lv, err := capped.Reduce(id, "partner", 2); err != nil || lv != 2 {
		t.Fatalf("reduce at floor: level=%d err=%v", lv, err)
	}
	if _, _, err := capped.Reduce(id, "partner", 1); !errors.Is(err, ErrDenied) {
		t.Fatalf("reduce below floor = %v, want ErrDenied", err)
	}
	if _, _, err := capped.Reduce(id, "partner", 0); !errors.Is(err, ErrDenied) {
		t.Fatalf("reduce to entitled level = %v, want ErrDenied", err)
	}
	if _, err := capped.RequestKeys(id, "partner"); !errors.Is(err, ErrDenied) {
		t.Fatalf("request_keys for floored tenant = %v, want ErrDenied", err)
	}
	if _, err := capped.ReplStatus(); !errors.Is(err, ErrDenied) {
		t.Fatalf("operator op = %v, want ErrDenied", err)
	}
}

func TestThrottle(t *testing.T) {
	_, addr, reg := startTenantServer(t, authFixture)
	c := dial(t, addr)
	if err := c.Auth("meter", "m-token"); err != nil {
		t.Fatal(err)
	}
	// burst 2 at ~zero refill: exactly two charged ops pass.
	throttled := 0
	for i := 0; i < 4; i++ {
		_, _, err := c.GetRegion("r-none")
		if errors.Is(err, ErrThrottled) {
			throttled++
		} else if !errors.Is(err, ErrRemote) {
			t.Fatalf("GetRegion: %v", err)
		}
	}
	if throttled != 2 {
		t.Fatalf("throttled %d of 4, want 2 (burst 2)", throttled)
	}
	// Liveness is never charged.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping while throttled: %v", err)
	}
	snap := reg.UsageSnapshot()
	for _, u := range snap {
		if u.Name == "meter" {
			if u.Ops != 2 || u.Throttled != 2 {
				t.Fatalf("meter usage %+v, want ops=2 throttled=2", u)
			}
			return
		}
	}
	t.Fatal("meter missing from usage snapshot")
}

// TestHotReloadRevokesLiveConnection pins the revocation path: an
// authenticated, in-flight connection loses access on its next op after
// the tenants file drops its tenant — no reconnect required.
func TestHotReloadRevokesLiveConnection(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "tenants.json")
	if err := os.WriteFile(path, []byte(authFixture), 0o600); err != nil {
		t.Fatal(err)
	}
	reg, err := tenant.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = reg.Close() }()
	g, density := testGrid(t)
	srv := newTestServer(t, g, density, WithTenants(reg))
	addr := startTestServer(t, srv)

	c := dial(t, addr)
	if err := c.Auth("alpha", "a-token"); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Anonymize(42, testProfile(), "RGE"); err != nil {
		t.Fatal(err)
	}

	// Revoke alpha and reload. The SAME connection's next op must fail.
	next := strings.Replace(authFixture, `"token": "a-token",`,
		`"token": "a-token", "disabled": true,`, 1)
	if err := os.WriteFile(path, []byte(next), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := reg.Reload(); err != nil {
		t.Fatal(err)
	}
	_, _, err = c.Anonymize(43, testProfile(), "RGE")
	if !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("post-revocation op = %v, want ErrAuthFailed", err)
	}
	// And re-authenticating is refused too.
	if err := c.Auth("alpha", "a-token"); !errors.Is(err, ErrAuthFailed) {
		t.Fatalf("re-auth after revocation = %v, want ErrAuthFailed", err)
	}
}

// TestQuotaAccountingRace drives one metered tenant from several
// connections concurrently (run with -race): the shared bucket and the
// usage counters stay consistent.
func TestQuotaAccountingRace(t *testing.T) {
	_, addr, reg := startTenantServer(t, `{
	  "tenants": [{"name": "hot", "token": "h-token", "capabilities": ["anonymize"], "rate": 0.001, "burst": 40}]
	}`)
	const conns = 4
	const perConn = 30
	var wg sync.WaitGroup
	for i := 0; i < conns; i++ {
		c := dial(t, addr)
		if err := c.Auth("hot", "h-token"); err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(c *Client) {
			defer wg.Done()
			for j := 0; j < perConn; j++ {
				_, _, err := c.GetRegion("r-none")
				if err != nil && !errors.Is(err, ErrRemote) {
					t.Errorf("GetRegion: %v", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	for _, u := range reg.UsageSnapshot() {
		if u.Name != "hot" {
			continue
		}
		if u.Ops+u.Throttled != conns*perConn {
			t.Fatalf("accounting lost ops: ops=%d throttled=%d, want sum %d",
				u.Ops, u.Throttled, conns*perConn)
		}
		if u.Ops < 40 || u.Ops > 41 {
			t.Fatalf("admitted %d ops, want the 40-token burst", u.Ops)
		}
		return
	}
	t.Fatal("hot missing from usage snapshot")
}

// TestAuthBeforePipelinedRequests sends auth and a burst of requests in
// one pipelined write: every request decoded after the auth must see
// the principal.
func TestAuthBeforePipelinedRequests(t *testing.T) {
	_, addr, _ := startTenantServer(t, authFixture)
	c := dial(t, addr)
	if err := c.Auth("alpha", "a-token"); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 16)
	for i := 0; i < len(errs); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, err := c.Anonymize(roadnet.SegmentID(i), testProfile(), "RGE")
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("pipelined request %d after auth: %v", i, err)
		}
	}
}

func TestAuthOpDisabledWithoutRegistry(t *testing.T) {
	_, addr, _ := startServer(t)
	c := dial(t, addr)
	err := c.Auth("alpha", "a-token")
	if err == nil || !errors.Is(err, ErrRemote) {
		t.Fatalf("auth on an open server = %v, want remote bad-op", err)
	}
	// And everything keeps working unauthenticated.
	if _, _, err := c.Anonymize(42, testProfile(), "RGE"); err != nil {
		t.Fatalf("open server refused an op: %v", err)
	}
}

// TestAdminHandler smoke-tests the observability plane: health and
// readiness probes and the Prometheus exposition's key series, on a
// durable server and on a memory-only one. The memory-only server must
// refuse repl_subscribe and expose no journal or follower series.
func TestAdminHandler(t *testing.T) {
	journal := []string{
		"anonymizer_wal_records_total 1",
		"anonymizer_wal_fsyncs_total",
		"anonymizer_wal_group_commit_last_cohort",
		"anonymizer_wal_log_bytes",
		"anonymizer_wal_log_segments 1",
		`anonymizer_wal_fsync_duration_seconds_bucket{le="+Inf"}`,
		"anonymizer_wal_fsync_duration_seconds_count",
		"anonymizer_stream_watermark_sum 1",
	}
	for _, tc := range []struct {
		name   string
		store  Store
		want   []string
		absent []string
	}{
		{name: "durable", store: mustDurable(t), want: journal},
		{name: "memory", store: NewShardedStore(2),
			absent: []string{"anonymizer_wal_", "anonymizer_stream_watermark_sum", "anonymizer_repl_follower_behind"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, addr, _ := startTenantServer(t, authFixture, WithStore(tc.store))
			c := dial(t, addr)
			if err := c.Auth("alpha", "a-token"); err != nil {
				t.Fatal(err)
			}
			if _, _, err := c.Anonymize(42, testProfile(), "RGE"); err != nil {
				t.Fatal(err)
			}
			if tc.absent != nil {
				const want = "anonymizer: bad operation: replication requires a durable store"
				if _, err := c.ReplSubscribe(0, false, "127.0.0.1:9999", nil); err == nil ||
					!strings.Contains(err.Error(), want) {
					t.Fatalf("repl_subscribe on a memory-only store = %v, want %q", err, want)
				}
			}

			h := srv.AdminHandler(AdminConfig{})
			get := func(path string) (int, string) {
				t.Helper()
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				return rec.Code, rec.Body.String()
			}
			if code, _ := get("/healthz"); code != http.StatusOK {
				t.Fatalf("/healthz = %d", code)
			}
			if code, _ := get("/readyz"); code != http.StatusOK {
				t.Fatalf("/readyz = %d", code)
			}
			code, body := get("/metrics")
			if code != http.StatusOK {
				t.Fatalf("/metrics = %d", code)
			}
			for _, series := range append([]string{
				"anonymizer_connections_open",
				"anonymizer_registrations 1",
				`anonymizer_op_duration_seconds_bucket{op="anonymize"`,
				`anonymizer_op_duration_seconds_count{op="anonymize"} 1`,
				`anonymizer_tenant_ops_total{tenant="alpha"}`,
			}, tc.want...) {
				if !strings.Contains(body, series) {
					t.Errorf("/metrics missing %q", series)
				}
			}
			for _, series := range tc.absent {
				if strings.Contains(body, series) {
					t.Errorf("/metrics has %q on a memory-only store", series)
				}
			}
			// Every tracked op exposes its error counter unconditionally.
			for _, op := range sortedOps() {
				if !strings.Contains(body, `anonymizer_op_errors_total{op="`+op+`"}`) {
					t.Errorf("/metrics missing error counter for op %q", op)
				}
			}
			if code, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
				t.Errorf("/debug/pprof/cmdline = %d", code)
			}
			if code, _ := get("/nope"); code != http.StatusNotFound {
				t.Errorf("unknown path = %d, want 404", code)
			}

			// A closed server flips both probes.
			_ = srv.Close()
			if code, _ := get("/healthz"); code != http.StatusServiceUnavailable {
				t.Errorf("/healthz after close = %d", code)
			}
			if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
				t.Errorf("/readyz after close = %d", code)
			}
		})
	}
}

// mustDurable opens a throwaway durable store.
func mustDurable(t *testing.T) *DurableStore {
	t.Helper()
	return openDurable(t, t.TempDir(), WithDurableShards(2))
}
