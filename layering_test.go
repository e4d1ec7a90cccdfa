package multibus

import (
	"errors"
	"go/build"
	"io/fs"
	"path/filepath"
	"testing"
)

// TestNoFacadeImportsBelowRoot pins the layering: the public façade is
// built on the internal packages, never the other way round, so no
// non-test package under internal/ or cmd/ may import the root multibus
// package. Test files may — the compute package's differential oracle
// compares the in-process backend against the façade.
func TestNoFacadeImportsBelowRoot(t *testing.T) {
	checked := 0
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			pkg, err := build.ImportDir(path, 0)
			var noGo *build.NoGoError
			if errors.As(err, &noGo) {
				return nil
			}
			if err != nil {
				return err
			}
			checked++
			for _, imp := range pkg.Imports {
				if imp == "multibus" {
					t.Errorf("%s imports the root multibus package", path)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if checked == 0 {
		t.Fatal("found no packages under internal/ or cmd/")
	}
}
