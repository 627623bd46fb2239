package cluster

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"time"
)

// ParseMember parses one "name=addr" entry.
func ParseMember(s string) (Member, error) {
	name, addr, ok := strings.Cut(strings.TrimSpace(s), "=")
	if !ok {
		return Member{}, fmt.Errorf("cluster: member %q: want name=addr", s)
	}
	m := Member{Name: strings.TrimSpace(name), Addr: strings.TrimSpace(addr)}
	if err := checkName(m.Name); err != nil {
		return Member{}, err
	}
	if err := checkAddr(m.Addr); err != nil {
		return Member{}, err
	}
	return m, nil
}

// ParseMembers parses a comma-separated "name=addr,name=addr" list (the
// -peers flag). Empty elements are skipped; duplicate names are an
// error, since the ring would silently drop all but the first.
func ParseMembers(s string) ([]Member, error) {
	return parseMemberList(strings.Split(s, ","))
}

// LoadMembersFile reads a membership file: one name=addr per line,
// blank lines and #-comments ignored.
func LoadMembersFile(path string) ([]Member, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: read members file: %w", err)
	}
	return parseMembersFile(data)
}

// parseMembersFile parses the contents of a membership file.
func parseMembersFile(data []byte) ([]Member, error) {
	lines := strings.Split(string(data), "\n")
	for i, l := range lines {
		if c := strings.IndexByte(l, '#'); c >= 0 {
			l = l[:c]
		}
		lines[i] = l
	}
	return parseMemberList(lines)
}

func parseMemberList(entries []string) ([]Member, error) {
	var ms []Member
	seen := make(map[string]bool)
	for _, e := range entries {
		if strings.TrimSpace(e) == "" {
			continue
		}
		m, err := ParseMember(e)
		if err != nil {
			return nil, err
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("cluster: duplicate member name %q", m.Name)
		}
		seen[m.Name] = true
		ms = append(ms, m)
	}
	return ms, nil
}

// WatchFile polls a membership file so nodes join and leave the ring
// without a restart. A changed roster is installed once two consecutive
// polls read the same bytes. A half-written file must not empty the
// ring: os.WriteFile truncates before it writes, so a poll can read an
// empty file, and a poller phase-locked to the writer reads it on every
// tick; a roster listing no members is therefore refused. A read or
// parse failure or an empty roster keeps the previous membership and is
// reported through onErr (nil ignores). Blocks until ctx is done; run it
// in a goroutine.
func (p *Peers) WatchFile(ctx context.Context, path string, interval time.Duration, onErr func(error)) {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	report := func(err error) {
		if onErr != nil {
			onErr(err)
		}
	}
	var installed string
	if data, err := os.ReadFile(path); err == nil {
		installed = string(data)
	}
	pending := installed
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		data, err := os.ReadFile(path)
		if err != nil {
			report(err)
			continue
		}
		seen := pending
		pending = string(data)
		if pending == installed || pending != seen {
			continue // unchanged, or not yet read twice in a row
		}
		ms, err := parseMembersFile(data)
		if err == nil && len(ms) == 0 {
			err = errors.New("cluster: members file lists no members")
		}
		if err != nil {
			report(err)
			continue
		}
		installed = pending
		p.SetMembers(ms)
	}
}
