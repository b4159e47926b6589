// Command mvtl-cli is a minimal coordinator front end for a set of
// mvtl-server processes: run single get/set operations or small
// read-modify-write transactions from the shell.
//
// Usage:
//
//	mvtl-cli -servers 127.0.0.1:7401,127.0.0.1:7402 set greeting hello
//	mvtl-cli -servers 127.0.0.1:7401,127.0.0.1:7402 get greeting
//	mvtl-cli -servers ... -mode mvtl-pessimistic txn set a 1 set b 2
//	mvtl-cli -servers ... stats
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"github.com/lpd-epfl/mvtl/internal/client"
	"github.com/lpd-epfl/mvtl/internal/policy"
	"github.com/lpd-epfl/mvtl/internal/timestamp"
	"github.com/lpd-epfl/mvtl/internal/transport"
)

func usage() {
	fmt.Fprintf(os.Stderr, `usage: mvtl-cli -servers host:port[,host:port...] [-mode MODE] COMMAND

commands:
  get KEY                      read one key
  set KEY VALUE                write one key
  txn (get KEY | set KEY VAL)...  run several operations in one transaction
  stats                        print per-server state sizes
  purge                        purge history older than now on all servers

modes: mvtil-early (default), mvtil-late, mvtl-to (or mvto+, mvto),
       mvtl-pessimistic (or 2pl, pessimistic)
`)
	os.Exit(2)
}

func main() {
	log.SetPrefix("mvtl-cli: ")
	log.SetFlags(0)

	serversFlag := flag.String("servers", "127.0.0.1:7401", "comma-separated server addresses")
	modeFlag := flag.String("mode", "mvtil-early", "concurrency control mode")
	timeout := flag.Duration("timeout", 5*time.Second, "operation timeout")
	flag.Usage = usage
	flag.Parse()
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}

	mode, err := policy.Parse(*modeFlag)
	if err != nil {
		log.Fatal(err)
	}

	cl, err := client.New(client.Config{
		ID:      int32(os.Getpid()%2_000_000_000 + 1),
		Servers: strings.Split(*serversFlag, ","),
		Network: transport.TCP{},
		Mode:    mode,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		_ = cl.Close()
	}()

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	switch args[0] {
	case "get":
		if len(args) != 2 {
			usage()
		}
		tx, err := cl.Begin(ctx)
		if err != nil {
			log.Fatal(err)
		}
		v, err := tx.Read(ctx, args[1])
		if err != nil {
			log.Fatal(err)
		}
		// The value is lent until Commit returns; it is printed only
		// once the read has committed.
		v = bytes.Clone(v)
		if err := tx.Commit(ctx); err != nil {
			log.Fatal(err)
		}
		if v == nil {
			fmt.Println("(nil)")
		} else {
			fmt.Println(string(v))
		}
	case "set":
		if len(args) != 3 {
			usage()
		}
		tx, err := cl.Begin(ctx)
		if err != nil {
			log.Fatal(err)
		}
		if err := tx.Write(ctx, args[1], []byte(args[2])); err != nil {
			log.Fatal(err)
		}
		if err := tx.Commit(ctx); err != nil {
			log.Fatal(err)
		}
		fmt.Println("ok")
	case "txn":
		tx, err := cl.Begin(ctx)
		if err != nil {
			log.Fatal(err)
		}
		rest := args[1:]
		for len(rest) > 0 {
			switch rest[0] {
			case "get":
				if len(rest) < 2 {
					usage()
				}
				v, err := tx.Read(ctx, rest[1])
				if err != nil {
					log.Fatalf("read %q: %v", rest[1], err)
				}
				fmt.Printf("%s = %s\n", rest[1], string(v))
				rest = rest[2:]
			case "set":
				if len(rest) < 3 {
					usage()
				}
				if err := tx.Write(ctx, rest[1], []byte(rest[2])); err != nil {
					log.Fatalf("write %q: %v", rest[1], err)
				}
				rest = rest[3:]
			default:
				usage()
			}
		}
		if err := tx.Commit(ctx); err != nil {
			log.Fatalf("commit: %v", err)
		}
		fmt.Println("committed")
	case "stats":
		for _, addr := range strings.Split(*serversFlag, ",") {
			st, err := cl.ServerStats(ctx, addr)
			if err != nil {
				log.Fatalf("%s: %v", addr, err)
			}
			fmt.Printf("%s: keys=%d versions=%d locks=%d (frozen %d)\n",
				addr, st.Keys, st.Versions, st.LockEntries, st.FrozenLocks)
		}
	case "purge":
		v, l, err := cl.PurgeServers(ctx, timestamp.New(time.Now().UnixMicro(), 0))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("purged %d versions, %d lock records\n", v, l)
	default:
		usage()
	}
}
