package labeltree

import (
	"fmt"
	"strings"
	"unicode"
)

// Query-shape guards: the twig parser accepts untrusted input (it sits
// behind /v1/estimate's q parameter), so both the node count and the
// nesting depth are bounded. The limits are far above any meaningful twig
// query — the paper's workloads top out at tens of nodes — and exist only
// to keep adversarial inputs from exhausting memory or the goroutine
// stack.
const (
	maxQueryNodes = 1 << 16
	maxQueryDepth = 1024
)

// ParsePattern parses the twig syntax "a(b,c(d))" into a Pattern,
// interning labels into dict. Whitespace around labels and punctuation is
// ignored. A leading "//" (as in the paper's "//laptop" example) is
// accepted and ignored: patterns are matched anywhere in the data tree, so
// the descendant axis at the root is implicit.
func ParsePattern(s string, dict *Dict) (Pattern, error) {
	return parsePattern(&patternParser{src: s, dict: dict})
}

// ParseKnownPattern is ParsePattern that resolves labels with
// dict.Lookup instead of interning them, so untrusted queries never grow
// a shared dictionary. A well-formed query naming a label dict does not
// hold fails with an *UnknownLabelError; syntax errors take precedence.
func ParseKnownPattern(s string, dict *Dict) (Pattern, error) {
	return parsePattern(&patternParser{src: s, dict: dict, lookup: true})
}

// UnknownLabelError reports the first label of a lookup-only parse that
// the dictionary does not hold.
type UnknownLabelError struct {
	Label string
}

func (e *UnknownLabelError) Error() string {
	return fmt.Sprintf("labeltree: unknown label %q", e.Label)
}

func parsePattern(p *patternParser) (Pattern, error) {
	p.skipSpace()
	p.acceptPrefix("//")
	root, err := p.parseNode(-1, 1)
	if err != nil {
		return Pattern{}, err
	}
	_ = root
	p.skipSpace()
	if p.pos != len(p.src) {
		return Pattern{}, fmt.Errorf("labeltree: trailing input %q at offset %d", p.src[p.pos:], p.pos)
	}
	if p.unknown != nil {
		return Pattern{}, p.unknown
	}
	return Pattern{labels: p.labels, parent: p.parents}, nil
}

// MustParsePattern is ParsePattern that panics on error; for tests and
// examples with literal queries.
func MustParsePattern(s string, dict *Dict) Pattern {
	p, err := ParsePattern(s, dict)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePath parses a path expression "a/b/c" (or "//a/b/c") into a path
// Pattern, interning labels into dict.
func ParsePath(s string, dict *Dict) (Pattern, error) {
	s = strings.TrimPrefix(strings.TrimSpace(s), "//")
	parts := strings.Split(s, "/")
	if len(parts) > maxQueryNodes {
		return Pattern{}, fmt.Errorf("labeltree: path exceeds %d steps", maxQueryNodes)
	}
	labels := make([]LabelID, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return Pattern{}, fmt.Errorf("labeltree: empty step in path %q", s)
		}
		labels = append(labels, dict.Intern(part))
	}
	return PathPattern(labels...), nil
}

type patternParser struct {
	src     string
	pos     int
	dict    *Dict
	labels  []LabelID
	parents []int32

	lookup  bool               // resolve labels without interning
	unknown *UnknownLabelError // first label lookup missed
}

// label resolves name: interned, or looked up with the first miss
// recorded so parsing can go on to report any syntax error first.
func (p *patternParser) label(name string) LabelID {
	if !p.lookup {
		return p.dict.Intern(name)
	}
	id, ok := p.dict.Lookup(name)
	if !ok && p.unknown == nil {
		p.unknown = &UnknownLabelError{Label: name}
	}
	return id
}

func (p *patternParser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *patternParser) acceptPrefix(prefix string) {
	if strings.HasPrefix(p.src[p.pos:], prefix) {
		p.pos += len(prefix)
	}
}

// isLabelByte admits element names plus the synthetic prefixes '@'
// (attribute nodes) and '#' (value-bucket nodes) so queries can carry
// attribute and value predicates.
func isLabelByte(c byte) bool {
	return c == '_' || c == '-' || c == '.' || c == ':' || c == '@' || c == '#' ||
		'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

// parseNode parses "label" or "label(child,child,...)" and records the node
// under parent. It returns the new node's index.
func (p *patternParser) parseNode(parent int32, depth int) (int32, error) {
	if depth > maxQueryDepth {
		return -1, fmt.Errorf("labeltree: query exceeds depth %d", maxQueryDepth)
	}
	if len(p.labels) >= maxQueryNodes {
		return -1, fmt.Errorf("labeltree: query exceeds %d nodes", maxQueryNodes)
	}
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isLabelByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return -1, fmt.Errorf("labeltree: expected label at offset %d in %q", p.pos, p.src)
	}
	idx := int32(len(p.labels))
	p.labels = append(p.labels, p.label(p.src[start:p.pos]))
	p.parents = append(p.parents, parent)
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		p.pos++
		for {
			if _, err := p.parseNode(idx, depth+1); err != nil {
				return -1, err
			}
			p.skipSpace()
			if p.pos >= len(p.src) {
				return -1, fmt.Errorf("labeltree: unterminated '(' in %q", p.src)
			}
			if p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.src[p.pos] == ')' {
				p.pos++
				break
			}
			return -1, fmt.Errorf("labeltree: expected ',' or ')' at offset %d in %q", p.pos, p.src)
		}
	}
	return idx, nil
}
