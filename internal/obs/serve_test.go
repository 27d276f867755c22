package obs

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("Content-Type"), string(body)
}

func TestServeEndpoints(t *testing.T) {
	r := populated()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	code, ctype, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content-type %q", ctype)
	}
	if !strings.Contains(body, "fbdcnet_test_pkts_total 42") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}

	for _, path := range []string{"/", "/progress"} {
		code, _, body = get(t, base+path)
		if code != http.StatusOK {
			t.Fatalf("%s status %d", path, code)
		}
		if !strings.Contains(body, "windows") || !strings.Contains(body, "stage-a") {
			t.Errorf("%s missing progress/stage lines:\n%s", path, body)
		}
	}

	for _, path := range []string{"/nope", "/debug/vars"} {
		if code, _, _ = get(t, base+path); code != http.StatusNotFound {
			t.Errorf("%s status %d, want 404", path, code)
		}
	}
}

// TestServeTwice pins that a second Serve (same process, new registry)
// works and exposes the new registry, not the first one.
func TestServeTwice(t *testing.T) {
	r1 := NewRegistry()
	r1.AddCounter(r1.Counter("first_total", ""), 1)
	s1, err := Serve("127.0.0.1:0", r1)
	if err != nil {
		t.Fatal(err)
	}
	s1.Close()

	r2 := NewRegistry()
	r2.AddCounter(r2.Counter("second_total", ""), 2)
	s2, err := Serve("127.0.0.1:0", r2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	_, _, body := get(t, "http://"+s2.Addr()+"/metrics")
	if !strings.Contains(body, "second_total 2") || strings.Contains(body, "first_total") {
		t.Errorf("second server does not expose its own registry:\n%s", body)
	}
}

// TestServeCloseDrainsScrapes pins the teardown contract: Close must not
// return while a handler can still be reading the registry. Scrapers
// hammer the endpoint while the server shuts down mid-flight; run under
// -race this catches any handler outliving Close.
func TestServeCloseDrainsScrapes(t *testing.T) {
	r := populated()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()

	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				resp, err := http.Get(base + "/metrics")
				if err != nil {
					return // listener closed: scraping is over
				}
				io.Copy(io.Discard, resp.Body) //nolint:errcheck
				resp.Body.Close()
			}
		}()
	}
	// Let the scrapers land a few requests, then tear down under load.
	time.Sleep(20 * time.Millisecond)
	if err := srv.Close(); err != nil {
		t.Fatalf("Close under load: %v", err)
	}
	// After Close returns no handler may touch the registry: mutate it
	// freely and join the scrapers.
	r.AddCounter(r.Counter("post_close_total", ""), 1)
	wg.Wait()

	if _, err := http.Get(base + "/metrics"); err == nil {
		t.Error("endpoint still serving after Close")
	}
}

// TestServeCloseIdempotent allows double-Close, the path a defer plus an
// explicit shutdown takes.
func TestServeCloseIdempotent(t *testing.T) {
	r := NewRegistry()
	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil && err != http.ErrServerClosed {
		t.Fatalf("second Close: %v", err)
	}
}
