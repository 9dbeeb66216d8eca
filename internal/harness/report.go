package harness

import (
	"fmt"
	"strconv"
	"strings"

	"safetynet/internal/campaign/report"
	"safetynet/internal/stats"
)

// Value is one numeric cell of a report: a mean with an error bar of one
// standard deviation (the paper's §4.1 statistical treatment), or a
// crash marker for runs that died.
type Value struct {
	Mean    float64 `json:"mean"`
	Stddev  float64 `json:"stddev,omitempty"`
	N       int     `json:"n,omitempty"`
	Crashed bool    `json:"crashed,omitempty"`
}

// Sampled builds a Value from an aggregated sample.
func Sampled(s *stats.Sample) Value {
	return Value{Mean: s.Mean(), Stddev: s.Stddev(), N: s.N()}
}

// Scalar builds a single-observation Value.
func Scalar(v float64) Value { return Value{Mean: v, N: 1} }

// CrashedValue marks a design point whose runs crashed.
func CrashedValue() Value { return Value{Crashed: true} }

// Row is one report row: label cells (aligned with Report.LabelCols)
// followed by numeric cells (aligned with Report.ValueCols).
type Row struct {
	Labels []string `json:"labels"`
	Values []Value  `json:"values,omitempty"`
}

// Report is the structured result of one experiment: a rectangular grid
// of labeled design points and measured values. It renders as the text
// tables the paper reports; internal/campaign/report encodes it
// losslessly as JSON and CSV.
type Report struct {
	Experiment string `json:"experiment"`
	Title      string `json:"title"`
	Subtitle   string `json:"subtitle,omitempty"`
	// LabelCols and ValueCols name the row cells.
	LabelCols []string `json:"labelColumns"`
	ValueCols []string `json:"valueColumns,omitempty"`
	// ValueFmt holds one printf verb per value column for text
	// rendering (default "%.3f"); JSON and CSV always carry full
	// precision.
	ValueFmt []string `json:"-"`
	Rows     []Row    `json:"rows"`
	Notes    []string `json:"notes,omitempty"`
	// Bar, when set, appends a crude horizontal bar chart of one value
	// column to the text rendering.
	Bar *BarSpec `json:"-"`
}

// BarSpec selects a value column for the text bar chart and its full
// scale.
type BarSpec struct {
	Col int
	Max float64
}

func (r *Report) valueFmt(col int) string {
	if col < len(r.ValueFmt) && r.ValueFmt[col] != "" {
		return r.ValueFmt[col]
	}
	return "%.3f"
}

// formatValue renders one cell for the text table.
func (r *Report) formatValue(col int, v Value) string {
	if v.Crashed {
		return "CRASH"
	}
	f := r.valueFmt(col)
	if v.N > 1 {
		return fmt.Sprintf(f+" ± "+f, v.Mean, v.Stddev)
	}
	return fmt.Sprintf(f, v.Mean)
}

// Render prints the report as the aligned text table the paper-style
// terminal output uses.
func (r *Report) Render() string {
	var b strings.Builder
	b.WriteString(r.Title + "\n")
	if r.Subtitle != "" {
		b.WriteString(r.Subtitle + "\n")
	}
	b.WriteString("\n")
	header := append(append([]string{}, r.LabelCols...), r.ValueCols...)
	if r.Bar != nil {
		header = append(header, "visual")
	}
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := append([]string{}, row.Labels...)
		for col, v := range row.Values {
			cells = append(cells, r.formatValue(col, v))
		}
		if r.Bar != nil {
			bar := ""
			if r.Bar.Col < len(row.Values) && !row.Values[r.Bar.Col].Crashed {
				bar = stats.Bar(row.Values[r.Bar.Col].Mean, r.Bar.Max, 24)
			}
			cells = append(cells, bar)
		}
		rows = append(rows, cells)
	}
	b.WriteString(stats.Table(header, rows))
	for _, n := range r.Notes {
		b.WriteString("\n" + n + "\n")
	}
	return b.String()
}

// Table returns the report as one flat table: label columns verbatim,
// then mean/stddev/crashed triplets per value column.
func (r *Report) Table() [][]string {
	header := append([]string{}, r.LabelCols...)
	for _, c := range r.ValueCols {
		header = append(header, c+"_mean", c+"_stddev", c+"_crashed")
	}
	table := [][]string{header}
	for _, row := range r.Rows {
		rec := append([]string{}, row.Labels...)
		for _, v := range row.Values {
			rec = append(rec,
				report.Float(v.Mean),
				report.Float(v.Stddev),
				strconv.FormatBool(v.Crashed))
		}
		table = append(table, rec)
	}
	return table
}
