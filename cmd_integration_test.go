package toppriv

// End-to-end integration test of the command-line tools: build all the
// binaries, generate a corpus, train a model, host the server, and run
// an obfuscated query through topprivctl — the full deployment pipeline
// a user would follow.

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
	"time"
)

// buildTools compiles all cmd binaries into a temp dir once.
func buildTools(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator),
		"./cmd/corpusgen", "./cmd/ldatrain", "./cmd/searchd", "./cmd/topprivctl", "./cmd/experiments")
	cmd.Env = os.Environ()
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return dir
}

func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bin := buildTools(t)
	work := t.TempDir()
	corpusPath := filepath.Join(work, "corpus.json")
	modelPath := filepath.Join(work, "model.tplm")

	// 1. corpusgen
	out, err := exec.Command(filepath.Join(bin, "corpusgen"),
		"-out", corpusPath, "-docs", "300", "-topics", "8", "-seed", "5").CombinedOutput()
	if err != nil {
		t.Fatalf("corpusgen: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "documents:    300") {
		t.Fatalf("corpusgen stats missing:\n%s", out)
	}
	if fi, err := os.Stat(corpusPath); err != nil || fi.Size() == 0 {
		t.Fatalf("corpus file not written: %v", err)
	}

	// 2. ldatrain
	out, err = exec.Command(filepath.Join(bin, "ldatrain"),
		"-corpus", corpusPath, "-out", modelPath, "-k", "8", "-iters", "40", "-top", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("ldatrain: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "topic ") {
		t.Fatalf("ldatrain top words missing:\n%s", out)
	}

	// 3. searchd on an ephemeral port.
	srv := exec.Command(filepath.Join(bin, "searchd"),
		"-corpus", corpusPath, "-addr", "127.0.0.1:0")
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Kill()
		srv.Wait()
	}()
	addr := waitForAddr(t, stderr)

	// 4. topprivctl: obfuscated query against the live server.
	ctl := exec.Command(filepath.Join(bin, "topprivctl"),
		"-server", "http://"+addr, "-model", modelPath,
		"-eps1", "0.04", "-eps2", "0.015", "-seed", "9", "-show-ghosts",
		"stock market investors trading dow jones")
	ctlOut, err := ctl.CombinedOutput()
	if err != nil {
		t.Fatalf("topprivctl: %v\n%s", err, ctlOut)
	}
	text := string(ctlOut)
	if !strings.Contains(text, "cycle:") {
		t.Errorf("no cycle report in output:\n%s", text)
	}
	if !strings.Contains(text, "[USER ]") {
		t.Errorf("user query not marked in output:\n%s", text)
	}
	if !strings.Contains(text, "1.") {
		t.Errorf("no results printed:\n%s", text)
	}

	// 5. topprivctl -session: sticky decoy profile across two queries.
	sessCmd := exec.Command(filepath.Join(bin, "topprivctl"),
		"-server", "http://"+addr, "-model", modelPath,
		"-eps1", "0.04", "-eps2", "0.015", "-seed", "11", "-session",
		"stock market investors trading", "dow jones index shares")
	sessOut, err := sessCmd.CombinedOutput()
	if err != nil {
		t.Fatalf("topprivctl -session: %v\n%s", err, sessOut)
	}
	if strings.Count(string(sessOut), "cycle:") != 2 {
		t.Errorf("session mode should report two cycles:\n%s", sessOut)
	}

	// 6. topprivctl -plain for comparison.
	plain := exec.Command(filepath.Join(bin, "topprivctl"),
		"-server", "http://"+addr, "-model", modelPath, "-plain",
		"stock market investors trading dow jones")
	plainOut, err := plain.CombinedOutput()
	if err != nil {
		t.Fatalf("topprivctl -plain: %v\n%s", err, plainOut)
	}
	if topDoc(t, text) != topDoc(t, string(plainOut)) {
		t.Error("obfuscated and plain searches returned different top documents")
	}
}

func TestCLIExperimentsQuickFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bin := buildTools(t)
	out, err := exec.Command(filepath.Join(bin, "experiments"),
		"-quick", "-fig", "6").CombinedOutput()
	if err != nil {
		t.Fatalf("experiments: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "Figure 6") {
		t.Fatalf("figure output missing:\n%s", out)
	}
}

var addrRe = regexp.MustCompile(`on (\d+\.\d+\.\d+\.\d+:\d+)`)

// waitForAddr reads searchd's stderr until it logs its bound address.
func waitForAddr(t *testing.T, r io.Reader) string {
	t.Helper()
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				lines <- m[1]
				return
			}
		}
		close(lines)
	}()
	select {
	case addr, ok := <-lines:
		if !ok {
			t.Fatal("searchd exited before logging its address")
		}
		return addr
	case <-time.After(30 * time.Second):
		t.Fatal("timeout waiting for searchd to start")
		return ""
	}
}

var topDocRe = regexp.MustCompile(`1\. doc (\d+)`)

func topDoc(t *testing.T, out string) string {
	t.Helper()
	m := topDocRe.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("no results in output:\n%s", out)
	}
	return m[1]
}

// TestCLILivePipeline exercises the live-index deployment: searchd
// -live with persistence, admin mutations through topprivctl, graceful
// SIGTERM shutdown (drain + memtable flush + save), and restart
// recovery from the manifest without reindexing.
func TestCLILivePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("integration test")
	}
	bin := buildTools(t)
	work := t.TempDir()
	corpusPath := filepath.Join(work, "corpus.json")
	dataDir := filepath.Join(work, "idx")

	out, err := exec.Command(filepath.Join(bin, "corpusgen"),
		"-out", corpusPath, "-docs", "150", "-topics", "6", "-seed", "7").CombinedOutput()
	if err != nil {
		t.Fatalf("corpusgen: %v\n%s", err, out)
	}

	// First run: seed from the corpus, mutate, shut down gracefully.
	srv := exec.Command(filepath.Join(bin, "searchd"),
		"-live", "-data", dataDir, "-corpus", corpusPath, "-addr", "127.0.0.1:0", "-seal", "64")
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	killed := false
	defer func() {
		if !killed {
			srv.Process.Kill()
			srv.Wait()
		}
	}()
	addr := waitForAddr(t, stderr)
	drained := make(chan string, 1)
	go func() {
		rest, _ := io.ReadAll(stderr)
		drained <- string(rest)
	}()

	docsPath := filepath.Join(work, "new.json")
	if err := os.WriteFile(docsPath, []byte(
		`[{"title":"fresh","text":"zebra migration patterns across the savanna plains"}]`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command(filepath.Join(bin, "topprivctl"),
		"-server", "http://"+addr, "-add-docs", docsPath).CombinedOutput()
	if err != nil {
		t.Fatalf("topprivctl -add-docs: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "indexed 1 documents (ids 150..150)") {
		t.Fatalf("unexpected add output:\n%s", out)
	}
	out, err = exec.Command(filepath.Join(bin, "topprivctl"),
		"-server", "http://"+addr, "-delete-doc", "3").CombinedOutput()
	if err != nil {
		t.Fatalf("topprivctl -delete-doc: %v\n%s", err, out)
	}

	// Graceful shutdown must flush the memtable (doc 150 lives there)
	// and save the segments.
	if err := srv.Process.Signal(os.Interrupt); err != nil {
		t.Fatal(err)
	}
	// Read stderr to EOF before Wait, which closes the pipe: the other
	// order can lose the tail of the log.
	tail := <-drained
	if err := srv.Wait(); err != nil {
		t.Fatalf("searchd exit: %v", err)
	}
	killed = true
	if !strings.Contains(tail, "saved") {
		t.Fatalf("no save on shutdown:\n%s", tail)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "MANIFEST.json")); err != nil {
		t.Fatalf("manifest not written: %v", err)
	}

	// Second run: recover from the manifest — no corpus flag at all, and
	// memory-mapped — and the flushed document plus the delete must have
	// survived.
	srv2 := exec.Command(filepath.Join(bin, "searchd"),
		"-live", "-data", dataDir, "-mmap", "-corpus", filepath.Join(work, "absent.json"), "-addr", "127.0.0.1:0")
	stderr2, err := srv2.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv2.Process.Kill()
		srv2.Wait()
	}()
	logged := make(chan string, 1)
	addr2 := waitForAddrTee(t, stderr2, logged)
	if !strings.Contains(<-logged, "recovered") {
		t.Fatal("second run did not recover from the manifest")
	}

	resp, err := http.Post("http://"+addr2+"/search", "application/json",
		strings.NewReader(`{"query":"zebra migration savanna","k":3}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"doc":150`) {
		t.Fatalf("flushed document lost across restart:\n%s", body)
	}
	resp, err = http.Get("http://" + addr2 + "/doc/3")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted doc resurrected: status %d", resp.StatusCode)
	}
	// -mmap across the process boundary: on Linux the recovered postings
	// payloads are file views, so less is resident than is indexed.
	// (Elsewhere the mapping falls back to a heap read.)
	resp, err = http.Get("http://" + addr2 + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct{ ResidentBytes, PostingsBytes int64 }
	err = json.NewDecoder(resp.Body).Decode(&stats)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if runtime.GOOS == "linux" && (stats.PostingsBytes <= 0 || stats.ResidentBytes >= stats.PostingsBytes) {
		t.Fatalf("-mmap store resident %d of %d postings bytes", stats.ResidentBytes, stats.PostingsBytes)
	}
}

// waitForAddrTee is waitForAddr but also hands back the matched log
// line so callers can assert on startup mode.
func waitForAddrTee(t *testing.T, r io.Reader, logged chan<- string) string {
	t.Helper()
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(r)
		var seen strings.Builder
		for sc.Scan() {
			seen.WriteString(sc.Text())
			seen.WriteString("\n")
			if m := addrRe.FindStringSubmatch(sc.Text()); m != nil {
				logged <- seen.String()
				lines <- m[1]
				return
			}
		}
		close(lines)
	}()
	select {
	case addr, ok := <-lines:
		if !ok {
			t.Fatal("searchd exited before logging its address")
		}
		return addr
	case <-time.After(30 * time.Second):
		t.Fatal("timeout waiting for searchd to start")
		return ""
	}
}
