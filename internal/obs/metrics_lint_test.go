package obs

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMetricNameRegistry is the metric-name lint: it scans every
// non-test Go source file in the repository for registry calls and
// enforces the naming contract documented in DESIGN.md §8 —
//
//   - names are lowercase dot-separated `pkg.name` segments of
//     [a-z0-9_], the first segment naming the owning subsystem;
//   - histogram names end in `_ms`;
//   - a name is registered as exactly one metric type everywhere;
//   - every name appears in the §8 table with the same type, and every
//     table row corresponds to a name in the code, so the table cannot
//     drift from the implementation in either direction.
//
// Dynamic families (a registered prefix ending in "." completed at run
// time, e.g. `pkg.family.` + label) are matched against table rows that
// extend the prefix.
func TestMetricNameRegistry(t *testing.T) {
	root := filepath.Join("..", "..")

	// call sites: .Counter("..."), .Gauge("..."), .Histogram("..."),
	// optionally followed by a concatenation (a dynamic prefix).
	callRe := regexp.MustCompile(`\.(Counter|Gauge|Histogram)\("([^"]*)"(\s*\+)?`)
	nameRe := regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`)

	types := map[string]string{}    // static name -> type
	prefixes := map[string]string{} // dynamic prefix (with trailing dot) -> type
	where := map[string]string{}    // name -> first file:line, for messages

	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || name == ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for lineNo, line := range strings.Split(string(data), "\n") {
			for _, m := range callRe.FindAllStringSubmatch(line, -1) {
				typ, name, concat := m[1], m[2], m[3] != ""
				at := fmt.Sprintf("%s:%d", path, lineNo+1)
				if concat {
					if !strings.HasSuffix(name, ".") || !nameRe.MatchString(strings.TrimSuffix(name, ".")) {
						t.Errorf("%s: dynamic metric prefix %q must be dot-terminated pkg.name segments", at, name)
						continue
					}
					if prev, ok := prefixes[name]; ok && prev != typ {
						t.Errorf("%s: prefix %q registered as both %s and %s", at, name, prev, typ)
					}
					prefixes[name] = typ
					where[name] = at
					continue
				}
				if !nameRe.MatchString(name) {
					t.Errorf("%s: metric name %q violates the pkg.name convention", at, name)
					continue
				}
				if typ == "Histogram" && !strings.HasSuffix(name, "_ms") {
					t.Errorf("%s: histogram %q must end in _ms", at, name)
				}
				if prev, ok := types[name]; ok && prev != typ {
					t.Errorf("%s: metric %q registered as both %s and %s", at, name, prev, typ)
				}
				types[name] = typ
				where[name] = at
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(types) == 0 {
		t.Fatal("found no metric registrations — lint scan is broken")
	}

	// The §8 table.
	design, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	section := string(design)
	if i := strings.Index(section, "## 8."); i >= 0 {
		section = section[i:]
	} else {
		t.Fatal("DESIGN.md has no §8")
	}
	if i := strings.Index(section, "\n## 9."); i >= 0 {
		section = section[:i]
	}
	rowRe := regexp.MustCompile("(?m)^\\| `([^`]+)` \\| (Counter|Gauge|Histogram) \\|")
	doc := map[string]string{} // table name -> type
	for _, m := range rowRe.FindAllStringSubmatch(section, -1) {
		doc[m[1]] = m[2]
	}
	if len(doc) == 0 {
		t.Fatal("DESIGN.md §8 has no metric table")
	}

	// Code -> table.
	for name, typ := range types {
		dtyp, ok := doc[name]
		if !ok {
			t.Errorf("%s: metric %q missing from the DESIGN.md §8 table", where[name], name)
			continue
		}
		if dtyp != typ {
			t.Errorf("%s: metric %q is a %s in code but a %s in DESIGN.md §8", where[name], name, typ, dtyp)
		}
	}
	for prefix, typ := range prefixes {
		found := false
		for name, dtyp := range doc {
			if strings.HasPrefix(name, prefix) {
				found = true
				if dtyp != typ {
					t.Errorf("%s: dynamic family %q is a %s in code but %q is a %s in DESIGN.md §8",
						where[prefix], prefix, typ, name, dtyp)
				}
			}
		}
		if !found {
			t.Errorf("%s: dynamic metric family %q has no row in the DESIGN.md §8 table", where[prefix], prefix)
		}
	}

	// Table -> code.
	for name, dtyp := range doc {
		if _, ok := types[name]; ok {
			continue
		}
		matched := false
		for prefix := range prefixes {
			if strings.HasPrefix(name, prefix) {
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("DESIGN.md §8 documents %q (%s) but no code registers it", name, dtyp)
		}
	}
}
