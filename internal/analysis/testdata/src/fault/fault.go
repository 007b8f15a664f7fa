// Package fault is a testdata stub mirroring the shape hetlint's
// detnondet analyzer matches in the real internal/fault package.
package fault

// SubSeed mirrors the real splitmix-style child-seed derivation seedflow
// blesses; the stub just needs the (parent, stream) shape.
func SubSeed(parent, stream int64) int64 {
	return parent*31 + stream
}
