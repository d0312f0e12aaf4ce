package exec

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileAtomic: a writer that fails mid-stream leaves the previous
// file byte-identical and no temp file behind; one that succeeds replaces
// the file whole.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	const old = "previous contents\n"
	if err := os.WriteFile(path, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}
	check := func(want string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Fatalf("file holds %q (%v), want %q", got, err, want)
		}
		entries, err := os.ReadDir(dir)
		if err != nil || len(entries) != 1 {
			t.Fatalf("directory holds %v (%v), want only state.json", entries, err)
		}
	}

	full := errors.New("disk full")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := io.WriteString(w, "half of the new"); err != nil {
			return err
		}
		return full
	})
	if !errors.Is(err, full) {
		t.Fatalf("failed write returned %v, want %v", err, full)
	}
	check(old)

	if err := WriteFileAtomic(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "new contents\n")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	check("new contents\n")
}
