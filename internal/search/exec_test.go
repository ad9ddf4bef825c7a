package search

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
)

func postSearch(t *testing.T, url string, req SearchRequest) (*http.Response, SearchResponse) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/search", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr SearchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
			t.Fatal(err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return resp, sr
}

// TestServerRejectsNegativeK pins the k-validation contract: negative
// is a 400, zero defaults to 10, and oversized asks are capped at the
// configured maximum instead of building a full-collection heap.
func TestServerKValidation(t *testing.T) {
	f := getFixture(t)
	q := f.topicQueryText(1, 4)

	resp, _ := postSearch(t, f.ts.URL, SearchRequest{Query: q, K: -3})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("k=-3 status %d, want 400", resp.StatusCode)
	}
	resp, sr := postSearch(t, f.ts.URL, SearchRequest{Query: q})
	if resp.StatusCode != http.StatusOK || len(sr.Hits) > 10 {
		t.Errorf("k=0: status %d, %d hits (default must be 10)", resp.StatusCode, len(sr.Hits))
	}

	f.server.SetMaxK(3)
	defer f.server.SetMaxK(0)
	resp, sr = postSearch(t, f.ts.URL, SearchRequest{Query: q, K: 500000})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("oversized k status %d", resp.StatusCode)
	}
	if len(sr.Hits) > 3 {
		t.Errorf("oversized k returned %d hits, cap is 3", len(sr.Hits))
	}
}

// TestServerExecOverride pins what is left of the per-request
// execution-mode override: nothing. A body that still carries "exec" —
// an older client, or a router one release behind its shards' front
// end — is answered exactly like the same body without it, whatever
// the value, on both query endpoints.
func TestServerExecOverride(t *testing.T) {
	f := getFixture(t)
	q := f.topicQueryText(2, 5)
	post := func(path, body string, out interface{}) {
		t.Helper()
		resp, err := http.Post(f.ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s %s: status %d, want 200", path, body, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	_, want := postSearch(t, f.ts.URL, SearchRequest{Query: q, K: 10})
	if len(want.Hits) == 0 {
		t.Fatal("no hits")
	}
	for _, mode := range []string{"auto", "blockmax", "exhaustive", "turbo"} {
		member := fmt.Sprintf(`{"query":%q,"k":10,"exec":%q}`, q, mode)
		var single SearchResponse
		post("/search", member, &single)
		if !reflect.DeepEqual(single.Hits, want.Hits) {
			t.Errorf("exec=%q changed /search hits:\n%v\nwant %v", mode, single.Hits, want.Hits)
		}
		var batch BatchSearchResponse
		post("/search/batch", `{"queries":[`+member+`]}`, &batch)
		if len(batch.Responses) != 1 || !reflect.DeepEqual(batch.Responses[0].Hits, want.Hits) {
			t.Errorf("exec=%q changed /search/batch hits: %+v", mode, batch.Responses)
		}
	}
}
