package report

import (
	"fmt"
	"io"
)

// Lines writes report text and keeps the first write error, so a renderer
// formats every line unconditionally and checks once, through Err. Writes
// after a failure are skipped.
type Lines struct {
	w   io.Writer
	err error
}

// NewLines returns a Lines writing to w.
func NewLines(w io.Writer) *Lines { return &Lines{w: w} }

// Printf writes formatted text.
func (l *Lines) Printf(format string, args ...any) {
	if l.err == nil {
		_, l.err = fmt.Fprintf(l.w, format, args...)
	}
}

// Println writes its operands followed by a newline.
func (l *Lines) Println(args ...any) {
	if l.err == nil {
		_, l.err = fmt.Fprintln(l.w, args...)
	}
}

// Err returns the first write error, or nil.
func (l *Lines) Err() error { return l.err }

// Head returns the first max items (all of them when max is negative) and
// how many it left out.
func Head[T any](items []T, max int) ([]T, int) {
	if max < 0 || len(items) <= max {
		return items, 0
	}
	return items[:max], len(items) - max
}

// List calls line for each of the first max items (all of them when max is
// negative), then writes "    ... N more not shown" for the rest.
func List[T any](l *Lines, items []T, max int, line func(T)) {
	shown, more := Head(items, max)
	for _, it := range shown {
		line(it)
	}
	if more > 0 {
		l.Printf("    ... %d more not shown\n", more)
	}
}
