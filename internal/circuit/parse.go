package circuit

import (
	"fmt"
	"strconv"
	"strings"
)

// Parse reads the text circuit format produced by Circuit.String:
//
//	qubits <n>
//	<gate>[(<p1>,<p2>…)] <q0> <q1> …
//
// Parameters may be numeric or a single symbolic name. Lines starting with
// '#' and blank lines are ignored. The format is a deliberately small
// QASM-like dialect sufficient for the benchmark suite.
func Parse(src string) (*Circuit, error) {
	var c *Circuit
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "qubits" {
			if len(fields) != 2 {
				return nil, fmt.Errorf("circuit: line %d: qubits wants one argument", lineNo+1)
			}
			n, err := strconv.Atoi(fields[1])
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("circuit: line %d: bad qubit count %q", lineNo+1, fields[1])
			}
			c = New(n)
			continue
		}
		if c == nil {
			return nil, fmt.Errorf("circuit: line %d: gate before qubits declaration", lineNo+1)
		}
		g, err := parseGate(fields)
		if err != nil {
			return nil, fmt.Errorf("circuit: line %d: %v", lineNo+1, err)
		}
		if err := safeAdd(c, g); err != nil {
			return nil, fmt.Errorf("circuit: line %d: %v", lineNo+1, err)
		}
	}
	if c == nil {
		return nil, fmt.Errorf("circuit: no qubits declaration")
	}
	return c, nil
}

func parseGate(fields []string) (Gate, error) {
	head := fields[0]
	g := Gate{}
	if open := strings.IndexByte(head, '('); open >= 0 {
		if !strings.HasSuffix(head, ")") {
			return g, fmt.Errorf("unterminated parameter list in %q", head)
		}
		g.Name = head[:open]
		if g.Name == "" {
			return g, fmt.Errorf("no gate name before %q", head)
		}
		inner := head[open+1 : len(head)-1]
		for _, tok := range strings.Split(inner, ",") {
			tok = strings.TrimSpace(tok)
			if v, err := strconv.ParseFloat(tok, 64); err == nil {
				g.Params = append(g.Params, v)
			} else if len(g.Params) == 0 && g.Symbol == "" {
				g.Symbol = tok
			} else {
				return g, fmt.Errorf("bad parameter %q", tok)
			}
		}
	} else {
		g.Name = head
	}
	for _, f := range fields[1:] {
		q, err := strconv.Atoi(f)
		if err != nil {
			return g, fmt.Errorf("bad qubit %q", f)
		}
		g.Qubits = append(g.Qubits, q)
	}
	if len(g.Qubits) == 0 {
		return g, fmt.Errorf("gate %q has no qubits", g.Name)
	}
	return g, nil
}

// safeAdd converts AddGate's validation panics into errors for the parser.
func safeAdd(c *Circuit, g Gate) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%v", r)
		}
	}()
	c.AddGate(g)
	return nil
}
