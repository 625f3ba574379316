package main

import (
	"encoding/csv"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"positlab/internal/runner"
)

// golden holds the committed outputs of the reproduction, the spec the
// benchmark checks every result against: results/<id>.csv for the
// experiments that export one, and the rendered tables of
// full_results.txt for the extensions that do not.
type golden struct {
	csv  map[string]*csvTable
	text map[string]map[string][]string // id -> matrix -> row fields
}

type csvTable struct {
	header string
	col    map[string]int
	line   map[string]string   // matrix -> raw row
	fields map[string][]string // matrix -> parsed row
}

// csvIDs are the experiments with a committed results/<id>.csv.
var csvIDs = map[string]bool{"table1": true, "fig6": true, "fig7": true, "fig8": true, "fig9": true, "table2": true, "table3": true}

// loadGolden reads the committed outputs of the given experiments from
// the repository rooted at root.
func loadGolden(root string, ids []string) (*golden, error) {
	g := &golden{csv: map[string]*csvTable{}, text: map[string]map[string][]string{}}
	var full []string
	for _, id := range ids {
		if csvIDs[id] {
			t, err := readCSVTable(filepath.Join(root, "results", id+".csv"))
			if err != nil {
				return nil, err
			}
			g.csv[id] = t
			continue
		}
		if full == nil {
			data, err := os.ReadFile(filepath.Join(root, "full_results.txt"))
			if err != nil {
				return nil, err
			}
			full = strings.Split(string(data), "\n")
		}
		rows, err := textSection(full, id)
		if err != nil {
			return nil, err
		}
		g.text[id] = rows
	}
	return g, nil
}

func readCSVTable(path string) (*csvTable, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	recs, err := csv.NewReader(strings.NewReader(string(data))).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(recs) != len(lines) || len(recs) < 2 {
		return nil, fmt.Errorf("%s: unexpected layout", path)
	}
	t := &csvTable{header: lines[0], col: map[string]int{}, line: map[string]string{}, fields: map[string][]string{}}
	for i, name := range recs[0] {
		t.col[name] = i
	}
	for i, rec := range recs[1:] {
		t.line[rec[0]] = lines[i+1]
		t.fields[rec[0]] = rec
	}
	return t, nil
}

// textSection returns the table rows of experiment id in
// full_results.txt, keyed by matrix: the lines after the header and
// its dashes, up to the first blank line.
func textSection(lines []string, id string) (map[string][]string, error) {
	start := -1
	for i, l := range lines {
		if strings.HasPrefix(l, "== "+id+":") {
			start = i
			break
		}
	}
	if start < 0 || start+3 > len(lines) {
		return nil, fmt.Errorf("full_results.txt: no section for %s", id)
	}
	rows := map[string][]string{}
	for _, l := range lines[start+3:] {
		f := strings.Fields(l)
		if len(f) == 0 {
			break
		}
		rows[f[0]] = f
	}
	return rows, nil
}

// field returns the committed value of column col for matrix in
// results/<id>.csv.
func (g *golden) field(id, matrix, col string) (string, error) {
	t := g.csv[id]
	if t == nil {
		return "", fmt.Errorf("no committed %s.csv", id)
	}
	row, ok := t.fields[matrix]
	if !ok {
		return "", fmt.Errorf("%s.csv has no row for %s", id, matrix)
	}
	i, ok := t.col[col]
	if !ok {
		return "", fmt.Errorf("%s.csv has no column %q", id, col)
	}
	return row[i], nil
}

// checkResult compares one experiment result's rows for the given
// matrices with the committed ones. CSV rows must match byte for byte;
// rendered rows field by field (column widths depend on the subset).
func (g *golden) checkResult(id string, res *runner.Result, matrices []string) error {
	seen := map[string]bool{}
	if t := g.csv[id]; t != nil {
		var content string
		for _, a := range res.Artifacts {
			if a.Name == id+".csv" {
				content = a.Content
			}
		}
		lines := strings.Split(strings.TrimRight(content, "\n"), "\n")
		if lines[0] != t.header {
			return fmt.Errorf("%s: csv header differs from results/%s.csv", id, id)
		}
		for _, l := range lines[1:] {
			m, _, _ := strings.Cut(l, ",")
			if want, ok := t.line[m]; !ok || l != want {
				return fmt.Errorf("%s: row %s differs from results/%s.csv:\n got  %s\n want %s", id, m, id, l, want)
			}
			seen[m] = true
		}
	} else {
		rows := g.text[id]
		lines := strings.Split(res.Body, "\n")
		for i := 2; i < len(lines); i++ {
			f := strings.Fields(lines[i])
			if len(f) == 0 {
				break
			}
			if want, ok := rows[f[0]]; !ok || strings.Join(f, " ") != strings.Join(want, " ") {
				return fmt.Errorf("%s: row %s differs from full_results.txt:\n got  %v\n want %v", id, f[0], f, want)
			}
			seen[f[0]] = true
		}
	}
	for _, m := range matrices {
		if !seen[m] {
			return fmt.Errorf("%s: no row for %s", id, m)
		}
	}
	if len(seen) != len(matrices) {
		return fmt.Errorf("%s: %d rows for %d matrices", id, len(seen), len(matrices))
	}
	return nil
}
