package analysis

import (
	"path/filepath"
	"testing"
)

// TestLoaderReadsExportData pins which standard-library importer a load
// takes, so the export-data versus source differential tests (in
// TestAnalyzerFixtures and cmd/hetlint) cannot pass by falling back both
// times: with go on PATH a fixture and then the whole module load from
// export data, the second load listing the standard-library packages the
// first did not need; with go off PATH the fixture loads from source.
func TestLoaderReadsExportData(t *testing.T) {
	fixture := filepath.Join("testdata", "src", "detnondet")
	newLoader := func() *Loader {
		t.Helper()
		l, err := NewLoader(fixture)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l := newLoader()
	if _, err := l.Load(fixture, []string{"."}); err != nil {
		t.Fatal(err)
	}
	if l.exports == nil {
		t.Fatalf("Load(%s) used the source importer with go on PATH", fixture)
	}
	if _, ok := l.exports["net/http"]; ok {
		t.Fatalf("Load(%s) listed net/http, which the fixture does not import", fixture)
	}
	if _, err := l.Load("../..", []string{"./..."}); err != nil {
		t.Fatal(err)
	}
	if l.exports["net/http"] == "" {
		t.Error("loading the module after the fixture did not list net/http's export data")
	}

	t.Setenv("PATH", t.TempDir())
	l = newLoader()
	if _, err := l.Load(fixture, []string{"."}); err != nil {
		t.Fatal(err)
	}
	if l.std == nil || l.exports != nil {
		t.Errorf("Load(%s) read export data with go off PATH", fixture)
	}
}
