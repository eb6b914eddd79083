package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
)

// The program under measurement runs in a child process of the benchmark,
// one per sample, so that the CPU time and the peak resident set a sample
// reports are the program's alone: the oracle, the query generator and the
// HTTP clients stay in the parent.  Parent and child talk over the child's
// standard input and output, one JSON value per line.

// childEnv names the environment variable that starts the benchmark's
// executable as a child of the given mode ("batch" or "serve").
const childEnv = "PERFBENCH_CHILD"

// child is a running child process, seen from the parent.
type child struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *bufio.Reader
	stderr bytes.Buffer
	done   bool
}

// startChild starts the benchmark's own executable as a child in mode and
// sends it req.  The child is killed if ctx ends or the parent dies; wait
// must be called either way.
func startChild(ctx context.Context, mode string, req any) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	c := &child{cmd: exec.CommandContext(ctx, exe)}
	c.cmd.Env = append(os.Environ(), childEnv+"="+mode)
	c.cmd.Stderr = &c.stderr
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if c.in, err = c.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := c.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	c.out = bufio.NewReader(out)
	if err := c.cmd.Start(); err != nil {
		return nil, err
	}
	if err := c.send(req); err != nil {
		c.wait()
		return nil, err
	}
	return c, nil
}

func (c *child) send(v any) error { return writeLine(c.in, v) }

// recv reads the child's next reply into v.  When it fails, the error
// wait returns says why the child stopped.
func (c *child) recv(v any) error {
	if err := readLine(c.out, v); err != nil {
		return fmt.Errorf("child: %w", err)
	}
	return nil
}

// wait closes the child's input, which asks it to finish, and waits until
// it has exited.  Its error ends with the last line the child wrote to its
// standard error, which is complete only once the child has exited.
func (c *child) wait() error {
	if c.done {
		return nil
	}
	c.done = true
	c.in.Close()
	if err := c.cmd.Wait(); err != nil {
		return fmt.Errorf("child: %w%s", err, c.stderrTail())
	}
	return nil
}

func (c *child) stderrTail() string {
	s := strings.TrimSpace(c.stderr.String())
	if s == "" {
		return ""
	}
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		s = s[i+1:]
	}
	return ": " + s
}

func writeLine(w io.Writer, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

func readLine(r *bufio.Reader, v any) error {
	line, err := r.ReadBytes('\n')
	if err != nil {
		if err == io.EOF && len(line) == 0 {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return json.Unmarshal(line, v)
}

// childMain is the entry point of a child process: it serves one sample of
// mode over standard input and output.
func childMain(mode string) int {
	runtime.GOMAXPROCS(maxProcs())
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	in := bufio.NewReader(os.Stdin)
	var err error
	switch mode {
	case "batch":
		err = childBatch(ctx, in, os.Stdout)
	case "serve":
		err = childServe(ctx, in, os.Stdout)
	default:
		err = fmt.Errorf("unknown child mode %q", mode)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	return 0
}
