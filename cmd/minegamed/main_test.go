package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRemovedCacheFlagsRejected pins that the cache-sizing flags are
// gone: each is an undefined flag, a usage error with exit status 2.
func TestRemovedCacheFlagsRejected(t *testing.T) {
	for _, name := range []string{"-demand-cache", "-market-cache", "-result-cache"} {
		var out, errw bytes.Buffer
		if code := run([]string{name, "8"}, &out, &errw); code != 2 {
			t.Errorf("%s 8: exit %d, want 2", name, code)
		}
		if !strings.Contains(errw.String(), "flag provided but not defined") {
			t.Errorf("%s 8: stderr %q does not report an undefined flag", name, errw.String())
		}
	}
}

// TestListenFailureExitsOne pins that an address the listener rejects
// makes run report the error on stderr and exit 1 without announcing a
// listening address.
func TestListenFailureExitsOne(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-addr", "127.0.0.1:99999"}, &out, &errw); code != 1 {
		t.Fatalf("exit %d, want 1 (stderr %q)", code, errw.String())
	}
	if !strings.HasPrefix(errw.String(), "minegamed:") {
		t.Errorf("stderr %q, want a line starting with minegamed:", errw.String())
	}
	if out.Len() != 0 {
		t.Errorf("stdout %q, want nothing: the listener never came up", out.String())
	}
}
