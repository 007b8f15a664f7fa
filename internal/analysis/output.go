package analysis

import (
	"encoding/json"
	"fmt"
	"io"
	"path/filepath"
)

// This file renders a finding list in the driver's three output formats:
//
//   - text:  the go vet-style "file:line: [analyzer] message" lines CI greps;
//   - json:  a flat array of finding objects for tooling;
//   - sarif: SARIF 2.1.0 for code-scanning upload, one run with one rule
//     per analyzer and one result per finding.
//
// All three write findings in the order given, which RunAnalyzersParallel
// guarantees is position-sorted and bit-identical at any worker count.

// WriteText renders findings one per line, go vet-style.
func WriteText(w io.Writer, findings []Finding) error {
	for _, f := range findings {
		if _, err := fmt.Fprintln(w, f); err != nil {
			return err
		}
	}
	return nil
}

// jsonFinding is the -format json element shape.
type jsonFinding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Analyzer string `json:"analyzer"`
	Severity string `json:"severity"`
	Message  string `json:"message"`
}

// WriteJSON renders findings as a flat JSON array (never null: an empty
// run emits []).
func WriteJSON(w io.Writer, findings []Finding) error {
	out := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		out = append(out, jsonFinding{
			File:     f.Pos.Filename,
			Line:     f.Pos.Line,
			Column:   f.Pos.Column,
			Analyzer: f.Analyzer,
			Severity: severity(f),
			Message:  f.Message,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// SARIF 2.1.0 minimal document shapes.
type sarifLog struct {
	Schema  string     `json:"$schema"`
	Version string     `json:"version"`
	Runs    []sarifRun `json:"runs"`
}

type sarifRun struct {
	Tool    sarifTool     `json:"tool"`
	Results []sarifResult `json:"results"`
}

type sarifTool struct {
	Driver sarifDriver `json:"driver"`
}

type sarifDriver struct {
	Name           string      `json:"name"`
	InformationURI string      `json:"informationUri,omitempty"`
	Rules          []sarifRule `json:"rules"`
}

type sarifRule struct {
	ID               string       `json:"id"`
	ShortDescription sarifMessage `json:"shortDescription"`
}

type sarifMessage struct {
	Text string `json:"text"`
}

type sarifResult struct {
	RuleID    string          `json:"ruleId"`
	Level     string          `json:"level"`
	Message   sarifMessage    `json:"message"`
	Locations []sarifLocation `json:"locations"`
}

type sarifLocation struct {
	PhysicalLocation sarifPhysicalLocation `json:"physicalLocation"`
}

type sarifPhysicalLocation struct {
	ArtifactLocation sarifArtifactLocation `json:"artifactLocation"`
	Region           sarifRegion           `json:"region"`
}

type sarifArtifactLocation struct {
	URI string `json:"uri"`
}

type sarifRegion struct {
	StartLine   int `json:"startLine"`
	StartColumn int `json:"startColumn,omitempty"`
}

// WriteSARIF renders findings as a SARIF 2.1.0 log: the analyzers (plus
// the directive pseudo-rule) become the driver's rules, severities map
// onto SARIF levels, and file paths are emitted slash-separated as given
// (the caller makes them repository-relative for code-scanning upload).
func WriteSARIF(w io.Writer, findings []Finding, analyzers []*Analyzer) error {
	rules := make([]sarifRule, 0, len(analyzers)+1)
	for _, a := range analyzers {
		rules = append(rules, sarifRule{ID: a.Name, ShortDescription: sarifMessage{Text: a.Doc}})
	}
	rules = append(rules, sarifRule{
		ID:               DirectiveName,
		ShortDescription: sarifMessage{Text: "problems with //hetlint:allow suppression directives"},
	})

	results := make([]sarifResult, 0, len(findings))
	for _, f := range findings {
		results = append(results, sarifResult{
			RuleID:  f.Analyzer,
			Level:   severity(f),
			Message: sarifMessage{Text: f.Message},
			Locations: []sarifLocation{{
				PhysicalLocation: sarifPhysicalLocation{
					ArtifactLocation: sarifArtifactLocation{URI: filepath.ToSlash(f.Pos.Filename)},
					Region:           sarifRegion{StartLine: f.Pos.Line, StartColumn: f.Pos.Column},
				},
			}},
		})
	}

	log := sarifLog{
		Schema:  "https://json.schemastore.org/sarif-2.1.0.json",
		Version: "2.1.0",
		Runs: []sarifRun{{
			Tool:    sarifTool{Driver: sarifDriver{Name: "hetlint", Rules: rules}},
			Results: results,
		}},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(log)
}

// severity is a finding's level in SARIF's vocabulary: every analyzer
// finding is an error, a problem with a suppression directive a warning.
func severity(f Finding) string {
	if f.Analyzer == DirectiveName {
		return "warning"
	}
	return "error"
}
