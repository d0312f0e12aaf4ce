package exec

import (
	"io"
	"os"
)

// WriteFileAtomic writes path through write, atomically: write fills a
// sibling temp file, which replaces path only once it is complete, synced
// and closed. A failed write leaves any previous file at path untouched and
// no temp file behind.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}
