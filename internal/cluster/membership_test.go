package cluster

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestParseMember(t *testing.T) {
	m, err := ParseMember(" n1 = http://host:8080 ")
	if err != nil {
		t.Fatalf("ParseMember: %v", err)
	}
	if m.Name != "n1" || m.Addr != "http://host:8080" {
		t.Fatalf("parsed %+v", m)
	}
	for _, bad := range []string{"", "n1", "n1=", "=http://h:1", "n1=ftp://h:1", "n 1=http://h:1"} {
		if _, err := ParseMember(bad); err == nil {
			t.Errorf("ParseMember(%q) accepted", bad)
		}
	}
}

func TestParseMembers(t *testing.T) {
	ms, err := ParseMembers("a=http://a:1, b=http://b:2 ,,")
	if err != nil {
		t.Fatalf("ParseMembers: %v", err)
	}
	if len(ms) != 2 || ms[0].Name != "a" || ms[1].Addr != "http://b:2" {
		t.Fatalf("parsed %v", ms)
	}
	if _, err := ParseMembers("a=http://a:1,a=http://a:2"); err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestLoadMembersFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "members")
	content := "# fleet roster\na=http://a:1\n\nb=http://b:2  # rack 2\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ms, err := LoadMembersFile(path)
	if err != nil {
		t.Fatalf("LoadMembersFile: %v", err)
	}
	if len(ms) != 2 || ms[0].Name != "a" || ms[1].Name != "b" {
		t.Fatalf("loaded %v", ms)
	}
	if _, err := LoadMembersFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestWatchFileInstallsUpdates(t *testing.T) {
	path := filepath.Join(t.TempDir(), "members")
	if err := os.WriteFile(path, []byte("self=http://s:1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p := testPeers(t, Config{})
	ms, _ := LoadMembersFile(path)
	p.SetMembers(ms)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.WatchFile(ctx, path, 5*time.Millisecond, func(err error) {
			select {
			case errs <- err:
			default:
			}
		})
	}()

	// rewriteUntil keeps writing body (with a changing comment, so every
	// write differs byte-wise from whatever the watcher last latched —
	// its initial read races with the first rewrite) until ok holds.
	rewriteUntil := func(body string, ok func() bool, what string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for rev := 0; !ok(); rev++ {
			if time.Now().After(deadline) {
				t.Fatalf("%s; members = %v", what, p.Members())
			}
			content := fmt.Sprintf("# rev %d\n%s", rev, body)
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// A good rewrite installs the new roster.
	rewriteUntil("self=http://s:1\njoiner=http://j:2\n",
		func() bool { return len(p.Members()) == 2 }, "joiner never installed")

	// A bad rewrite keeps the previous membership and reports the error.
	gotErr := func() bool {
		select {
		case <-errs:
			return true
		default:
			return false
		}
	}
	rewriteUntil("broken line\n", gotErr, "parse error never reported")
	if got := p.Members(); len(got) != 2 {
		t.Fatalf("bad file changed membership: %v", got)
	}

	// Recovery: a later good rewrite takes effect.
	rewriteUntil("self=http://s:1\n",
		func() bool { return len(p.Members()) == 1 }, "departure never installed")
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("WatchFile did not stop on context cancel")
	}
}

// TestWatchFileRefusesEmptyRoster: an empty roster — what a poll reads
// between os.WriteFile's truncate and its write — is reported, never
// installed, however many polls read it.
func TestWatchFileRefusesEmptyRoster(t *testing.T) {
	path := filepath.Join(t.TempDir(), "members")
	if err := os.WriteFile(path, []byte("self=http://s:1\npeer=http://p:2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	p := testPeers(t, Config{})
	ms, _ := LoadMembersFile(path)
	p.SetMembers(ms)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	errs := make(chan error, 1)
	go p.WatchFile(ctx, path, time.Millisecond, func(err error) {
		select {
		case errs <- err:
		default:
		}
	})
	// Each rewrite differs, so one always postdates the watcher's
	// initial read; every one of them lists no members.
	deadline := time.Now().Add(10 * time.Second)
	for rev := 0; len(errs) == 0; rev++ {
		if time.Now().After(deadline) {
			t.Fatal("empty roster never reported")
		}
		if err := os.WriteFile(path, []byte(fmt.Sprintf("# emptied, rev %d\n", rev)), 0o644); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := p.Members(); len(got) != 2 {
		t.Fatalf("empty roster changed membership: %v", got)
	}
}

// FuzzParseMembers: any membership-file contents either parse into a
// roster of valid, uniquely named members or fail cleanly — never a
// panic, never a duplicate name or an unroutable address let through.
func FuzzParseMembers(f *testing.F) {
	f.Add([]byte("# fleet roster\na=http://a:1\n\nb=http://b:2  # rack 2\n"))
	f.Add([]byte("a=http://a:1\na=http://a:2\n"))
	f.Add([]byte("a=ftp://a:1\n"))
	f.Add([]byte("# rev 3\n"))
	f.Add([]byte(""))
	f.Fuzz(func(t *testing.T, data []byte) {
		ms, err := parseMembersFile(data)
		if err != nil {
			return
		}
		seen := make(map[string]bool, len(ms))
		for _, m := range ms {
			if seen[m.Name] {
				t.Fatalf("duplicate member %q accepted", m.Name)
			}
			seen[m.Name] = true
			if err := checkName(m.Name); err != nil {
				t.Fatalf("invalid name accepted: %v", err)
			}
			if err := checkAddr(m.Addr); err != nil {
				t.Fatalf("invalid address accepted: %v", err)
			}
		}
	})
}
