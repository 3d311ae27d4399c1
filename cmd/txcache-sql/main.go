// Command txcache-sql is an interactive shell for the database engine,
// local or remote. Each line is one SQL statement executed in its own
// transaction; SELECT results print with their validity interval and
// invalidation tags, which makes the TxCache machinery visible:
//
//	$ go run ./cmd/txcache-sql
//	txcache> CREATE TABLE users (id BIGINT PRIMARY KEY, name TEXT)
//	ok
//	txcache> INSERT INTO users (id, name) VALUES (1, 'alice')
//	1 row(s); committed at ts 2
//	txcache> SELECT name FROM users WHERE id = 1
//	name
//	----
//	alice
//	(1 row; validity [2,inf) still-valid; tags [users:id=1])
//
// With -connect host:port it speaks to a running txcache-dbd instead of an
// in-process engine.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"txcache/internal/core"
	"txcache/internal/db"
	"txcache/internal/db/dbnet"
	"txcache/internal/sql"
)

func main() {
	connect := flag.String("connect", "", "txcache-dbd address (default: in-process engine)")
	flag.Parse()

	var backend core.DB
	var local *db.Engine
	if *connect != "" {
		cl, err := dbnet.Dial(*connect, 2)
		if err != nil {
			fmt.Fprintf(os.Stderr, "txcache-sql: %v\n", err)
			os.Exit(1)
		}
		defer cl.Close()
		backend = cl
		fmt.Printf("connected to %s\n", *connect)
	} else {
		local = db.New(db.Options{})
		backend = core.EngineDB{Engine: local}
		fmt.Println("in-process engine (state is lost on exit)")
	}

	in := bufio.NewScanner(os.Stdin)
	in.Buffer(make([]byte, 1<<20), 1<<20)
	for {
		fmt.Print("txcache> ")
		if !in.Scan() {
			fmt.Println()
			return
		}
		line := strings.TrimSpace(in.Text())
		if line == "" {
			continue
		}
		switch strings.ToLower(line) {
		case "exit", "quit", `\q`:
			return
		}
		if err := run(backend, local, line); err != nil {
			fmt.Printf("error: %v\n", err)
		}
	}
}

func run(backend core.DB, local *db.Engine, line string) error {
	st, err := sql.Parse(line)
	if err != nil {
		return err
	}
	switch st.(type) {
	case *sql.CreateTable, *sql.CreateIndex:
		if local == nil {
			return fmt.Errorf("DDL is only supported on the in-process engine (run it on the daemon)")
		}
		if err := local.DDL(line); err != nil {
			return err
		}
		fmt.Println("ok")
		return nil
	case *sql.Select:
		// Each statement is one transaction bounded by a shell-side
		// deadline, so a wedged daemon cannot hang the prompt forever.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		tx, err := backend.Begin(ctx, true, 0)
		if err != nil {
			return err
		}
		defer tx.Abort()
		r, err := tx.Query(line)
		if err != nil {
			return err
		}
		printResult(r)
		return nil
	default:
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		tx, err := backend.Begin(ctx, false, 0)
		if err != nil {
			return err
		}
		n, err := tx.Exec(line)
		if err != nil {
			tx.Abort()
			return err
		}
		ts, err := tx.Commit()
		if err != nil {
			return err
		}
		fmt.Printf("%d row(s); committed at ts %v\n", n, ts)
		return nil
	}
}

func printResult(r *db.Result) {
	widths := make([]int, len(r.Cols))
	for i, c := range r.Cols {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := sql.FormatValue(v)
			cells[ri][ci] = s
			if len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	for i, c := range r.Cols {
		fmt.Printf("%-*s  ", widths[i], c)
	}
	fmt.Println()
	for i := range r.Cols {
		fmt.Printf("%s  ", strings.Repeat("-", widths[i]))
	}
	fmt.Println()
	for _, row := range cells {
		for ci, s := range row {
			fmt.Printf("%-*s  ", widths[ci], s)
		}
		fmt.Println()
	}
	extra := ""
	if r.StillValid() {
		extra = " still-valid"
	}
	fmt.Printf("(%d row(s); validity %v%s; tags %v)\n", len(r.Rows), r.Validity, extra, r.Tags)
}
