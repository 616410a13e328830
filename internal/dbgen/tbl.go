package dbgen

import (
	"bufio"
	"os"
	"path/filepath"
	"sort"

	"r3bench/internal/val"
)

// WriteTbl writes the whole population as DBGEN-style pipe-delimited
// .tbl files into dir, returning the total bytes written. This is the
// ~200 MB ASCII form the paper starts from ("for SF=0.2, the DBGEN tool
// generates an ASCII file of about 200 MB").
func (g *Generator) WriteTbl(dir string) (int64, error) { return g.writeTbl(dir, false) }

// WriteTblSorted writes the same population as WriteTbl with every
// table's rows sorted by primary key. Most streams already arrive in
// key order; the exception is PARTSUPP, whose four suppliers per part
// come permuted by the join-safe assignment. Sorting is applied to
// every table anyway, so the output is key-sorted by construction.
// Sorted input lets a direct-path loader build its indexes bottom-up
// without a run sort, at the cost of buffering each table in memory
// (~the table's ASCII size) before writing it.
func (g *Generator) WriteTblSorted(dir string) (int64, error) { return g.writeTbl(dir, true) }

func (g *Generator) writeTbl(dir string, sorted bool) (int64, error) {
	var total int64
	for i := range Streams {
		n, err := g.writeStream(dir, &Streams[i], sorted)
		total += n
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// keyedLine is one formatted row with its primary key, buffered for the
// sorted writer.
type keyedLine struct {
	key  [2]int64
	line string
}

// writeStream writes the files of one stream's tables. Both modes format a
// row with the table's AppendLine, so they emit byte-identical rows and
// differ only in row order: the sorted one holds every line back until the
// stream ends and writes them by key.
func (g *Generator) writeStream(dir string, s *Stream, sorted bool) (int64, error) {
	files := make([]*os.File, len(s.Tables))
	outs := make([]*bufio.Writer, len(s.Tables))
	held := make([][]keyedLine, len(s.Tables))
	for i, t := range s.Tables {
		f, err := os.Create(filepath.Join(dir, t.File))
		if err != nil {
			return 0, err
		}
		defer f.Close() // for the error paths; the last loop checks Close
		files[i], outs[i] = f, bufio.NewWriter(f)
	}
	var total int64
	var line []byte
	err := s.Each(g, func(t *Table, row []val.Value) error {
		i := s.Slot(t)
		line = t.AppendLine(line[:0], row)
		total += int64(len(line))
		if sorted {
			held[i] = append(held[i], keyedLine{t.Key(row), string(line)})
			return nil
		}
		_, err := outs[i].Write(line)
		return err
	})
	if err != nil {
		return 0, err
	}
	for i, f := range files {
		rows := held[i]
		sort.Slice(rows, func(a, b int) bool {
			if rows[a].key[0] != rows[b].key[0] {
				return rows[a].key[0] < rows[b].key[0]
			}
			return rows[a].key[1] < rows[b].key[1]
		})
		for _, r := range rows {
			if _, err := outs[i].WriteString(r.line); err != nil {
				return 0, err
			}
		}
		if err := outs[i].Flush(); err != nil {
			return 0, err
		}
		if err := f.Close(); err != nil {
			return 0, err
		}
	}
	return total, nil
}
