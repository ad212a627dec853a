package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// TestWriteFileAtomicConcurrentWriters: writers racing on one path each
// publish a whole payload, and a reader of the path never sees a torn one.
// Two timeline requests for one workspace, or two cluster nodes finishing
// one digest, write the same file this way.
func TestWriteFileAtomicConcurrentWriters(t *testing.T) {
	const (
		writers = 4
		rounds  = 50
		size    = 256 << 10
	)
	path := filepath.Join(t.TempDir(), "result.json")
	if err := writeFileAtomic(path, bytes.Repeat([]byte{'a'}, size)); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers*rounds)
	for w := 0; w < writers; w++ {
		payload := bytes.Repeat([]byte{byte('b' + w)}, size)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := writeFileAtomic(path, payload); err != nil {
					errs <- err
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	reads, torn := 0, 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("read %d: %v", reads, err)
		}
		reads++
		if len(raw) != size || bytes.Count(raw, raw[:1]) != size {
			torn++
		}
	}
	close(errs)
	failed := 0
	for err := range errs {
		if failed == 0 {
			t.Errorf("write failed: %v", err)
		}
		failed++
	}
	if failed > 0 || torn > 0 {
		t.Fatalf("%d of %d writes failed; %d of %d reads saw a partial file", failed, writers*rounds, torn, reads)
	}
	left, err := filepath.Glob(path + ".tmp*")
	if err != nil || len(left) > 0 {
		t.Fatalf("temp files left behind: %v %v", left, err)
	}
}
