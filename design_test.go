package cachepirate_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// designSection matches a DESIGN.md section heading, "## N. Title".
var designSection = regexp.MustCompile(`(?m)^## (\d+)\. `)

// designCite matches a citation of DESIGN.md by section number, with
// more numbers joined by "," or "and", and an optional quoted title of
// a bold paragraph in the first section.
var designCite = regexp.MustCompile(`DESIGN\.md §(\d+)((?:(?:,? and |, )§\d+)*)(?:, "([^"]+)")?`)

// sectionRef matches one "§N" of a citation's list.
var sectionRef = regexp.MustCompile(`§(\d+)`)

// commentPrefix is what a line's text starts after: indentation and
// Go, shell or Makefile comment markers, so that a citation wrapped
// across comment lines reads as one phrase once lines are joined.
var commentPrefix = regexp.MustCompile(`^\s*(//|#)*\s*`)

// TestDesignCitations holds every section-number citation of DESIGN.md
// in the Go sources, the Makefile, CI and the README to the file: the
// section must exist, and a quoted title must be a bold paragraph
// title in it. Sections are renumbered when DESIGN.md is folded, and a
// stale number sends a reader to the wrong section.
func TestDesignCitations(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[int]string{}
	heads := designSection.FindAllSubmatchIndex(design, -1)
	for i, h := range heads {
		end := len(design)
		if i+1 < len(heads) {
			end = heads[i+1][0]
		}
		n, _ := strconv.Atoi(string(design[h[2]:h[3]]))
		sections[n] = string(design[h[0]:end])
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered sections")
	}

	files := []string{"Makefile", ".github/workflows/ci.yml", "README.md"}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cites := 0
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(data), "\n")
		for i, l := range lines {
			lines[i] = commentPrefix.ReplaceAllString(l, "")
		}
		text := strings.Join(lines, " ")
		for _, m := range designCite.FindAllStringSubmatch(text, -1) {
			cites++
			nums := []string{m[1]}
			for _, more := range sectionRef.FindAllStringSubmatch(m[2], -1) {
				nums = append(nums, more[1])
			}
			for _, num := range nums {
				n, _ := strconv.Atoi(num)
				if _, ok := sections[n]; !ok {
					t.Errorf("%s: %q cites §%d, which DESIGN.md does not have", path, m[0], n)
				}
			}
			first, _ := strconv.Atoi(m[1])
			if title := m[3]; title != "" && !strings.Contains(sections[first], "**"+title) {
				t.Errorf("%s: %q quotes %q, which is no bold title in DESIGN.md §%d", path, m[0], title, first)
			}
		}
	}
	if cites == 0 {
		t.Fatal("found no DESIGN.md citations to check")
	}
}

// Doc caps. A CHANGES.md entry is one line that says what changed and
// cites the benchmark's verdict rather than narrating runs pair by
// pair, and 3 KB holds that. DESIGN.md's cap is its size once the lint
// sections were folded into one: the file may not grow back, so a new
// note replaces an old one.
const (
	changesEntryCap = 3072
	designCap       = 57805
)

// TestDocCaps holds every CHANGES.md entry and DESIGN.md to their caps.
func TestDocCaps(t *testing.T) {
	changes, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	for i, entry := range strings.Split(string(changes), "\n") {
		if len(entry) > changesEntryCap {
			t.Errorf("CHANGES.md:%d: the entry is %d bytes, over the %d-byte cap", i+1, len(entry), changesEntryCap)
		}
	}
	design, err := os.Stat("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if n := design.Size(); n > designCap {
		t.Errorf("DESIGN.md is %d bytes, over the %d-byte cap; replace an old note instead of adding one", n, designCap)
	}
}
