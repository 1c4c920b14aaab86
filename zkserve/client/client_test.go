package client

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/zkserve"
)

// TestScanRowsRefusesNDJSON: a row scan answered with NDJSON — a server
// that ignored the Accept header — is an error that names the type, not
// rows parsed another way.
func TestScanRowsRefusesNDJSON(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("Accept"); got != zkserve.MIMEBinaryRows {
			t.Errorf("Accept = %q, want %q", got, zkserve.MIMEBinaryRows)
		}
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", zkserve.MIMERows)
		io.WriteString(w, "{\"table\":\"t\",\"cols\":[\"c0\"]}\n[0,1]\n{\"done\":true,\"rows\":1,\"elapsed_ms\":0.1}\n")
	}))
	defer ts.Close()
	called := false
	_, err := New(ts.URL, ts.Client()).ScanRows(context.Background(),
		zkserve.ScanRequest{Table: "t", Cols: []string{"c0"}}, func(int64, []int64) bool {
			called = true
			return true
		})
	if err == nil || !strings.Contains(err.Error(), zkserve.MIMERows) {
		t.Fatalf("err = %v, want one naming %q", err, zkserve.MIMERows)
	}
	if called {
		t.Fatal("fn called for rows of an unrequested format")
	}
}
