// Package report is the one place a report becomes bytes. An
// experiment's table or figure (internal/harness), a campaign's
// statistics (internal/campaign) and an exploration's Pareto frontier
// (internal/explore) all encode here as text, JSON or CSV, whichever
// front end asks: snbench, sncampaign, snexplore or the campaign daemon.
// One rule holds for every format: an encoding ends in a newline. It
// imports nothing from the module, and sits under campaign because every
// package that builds or serves a report already imports campaign.
package report

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strconv"
)

// Report is what each report type provides; JSON marshals the value
// itself.
type Report interface {
	// Render returns the aligned text tables.
	Render() string
	// Table returns the flat table CSV encodes: a header row, then one
	// record per row.
	Table() [][]string
}

// ContentType checks a format name and returns the HTTP Content-Type of
// its encoding; "" means text. An unknown name gets the one error every
// front end reports.
func ContentType(format string) (string, error) {
	switch format {
	case "", "text":
		return "text/plain; charset=utf-8", nil
	case "json":
		return "application/json", nil
	case "csv":
		return "text/csv; charset=utf-8", nil
	}
	return "", fmt.Errorf("unknown format %q (have text, json, csv)", format)
}

// Check returns the unknown-format error for a name no encoding has.
func Check(format string) error {
	_, err := ContentType(format)
	return err
}

// Encode renders rep in the named format ("" or "text", "json", "csv"),
// ending in a newline.
func Encode(rep Report, format string) ([]byte, error) {
	switch format {
	case "", "text":
		return terminate([]byte(rep.Render())), nil
	case "json":
		return JSON(rep)
	case "csv":
		var b bytes.Buffer
		if err := csv.NewWriter(&b).WriteAll(rep.Table()); err != nil {
			return nil, err
		}
		return terminate(b.Bytes()), nil
	}
	return nil, Check(format)
}

// JSON encodes v as indented JSON with full numeric precision, ending in
// a newline: the json format of a report, and of any other document a
// front end prints in its place.
func JSON(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return terminate(b), nil
}

// Float formats a CSV number cell at full precision.
func Float(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// terminate ends an encoding in a newline.
func terminate(b []byte) []byte {
	if len(b) == 0 || b[len(b)-1] != '\n' {
		b = append(b, '\n')
	}
	return b
}
