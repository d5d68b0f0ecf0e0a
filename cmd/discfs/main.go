// Command discfs is the DisCFS client: the cattach-equivalent utility of
// the paper plus file operations and credential management.
//
//	discfs -server host:port -key me.key <subcommand> [args]
//
// Subcommands:
//
//	keygen                       create the key file and print the principal
//	whoami                       show the principal the server authenticated
//	ls [path]                    list a directory
//	cat <path>                   print a file
//	put <path>                   store stdin at path (prints the creator credential)
//	mkdir <path>                 create a directory (prints the creator credential)
//	rm <path>                    remove a file
//	submit <credfile>...         submit credential assertions to the server
//	issue <holder> <ino> <perm>  sign a delegation credential with this key
//	revoke-key <principal>       administrator: revoke a key
//	revoke-cred <sigfile>        administrator: revoke one credential
//	creds                        administrator: list session credentials
//	stats                        print policy-engine statistics
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"discfs"
)

func usage() {
	fmt.Fprintln(os.Stderr, "usage: discfs -server host:port -key file <keygen|whoami|ls|cat|put|mkdir|rm|submit|issue|revoke-key|revoke-cred|creds|stats> [args]")
	os.Exit(2)
}

func main() {
	var (
		server  = flag.String("server", "127.0.0.1:20049", "DisCFS server address")
		keyPath = flag.String("key", "discfs.key", "identity key file")
		timeout = flag.Duration("timeout", 0, "overall deadline for the operation (0: none)")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	args := flag.Args()
	if len(args) == 0 {
		usage()
	}
	cmd, rest := args[0], args[1:]

	if cmd == "keygen" {
		key, err := discfs.LoadOrCreateKey(*keyPath)
		check(err)
		fmt.Printf("principal: %s\n", key.Principal)
		return
	}

	key, err := discfs.LoadOrCreateKey(*keyPath)
	check(err)

	if cmd == "issue" {
		// Offline operation: no server connection needed.
		if len(rest) != 3 {
			usage()
		}
		ino, err := strconv.ParseUint(rest[1], 10, 64)
		check(err)
		cred, err := discfs.SignCredential(key, discfs.CredentialSpec{
			Licensees:  discfs.LicenseesOr(discfs.Principal(rest[0])),
			Conditions: discfs.SubtreeConditions(ino, rest[2], true, ""),
			Comment:    "issued by discfs CLI",
		})
		check(err)
		fmt.Print(cred.Source)
		return
	}

	c, err := discfs.Dial(ctx, *server, key)
	check(err)
	defer c.Close()

	switch cmd {
	case "whoami":
		p, err := c.WhoAmI(ctx)
		check(err)
		fmt.Println(p)

	case "ls":
		path := "/"
		if len(rest) > 0 {
			path = rest[0]
		}
		ents, err := c.List(ctx, path)
		check(err)
		for _, e := range ents {
			fmt.Printf("%10d  %s\n", e.FileID, e.Name)
		}

	case "cat":
		if len(rest) != 1 {
			usage()
		}
		data, err := c.ReadFile(ctx, rest[0])
		check(err)
		os.Stdout.Write(data)

	case "put":
		if len(rest) != 1 {
			usage()
		}
		data, err := io.ReadAll(os.Stdin)
		check(err)
		attr, cred, err := c.WriteFile(ctx, rest[0], data)
		check(err)
		fmt.Fprintf(os.Stderr, "stored %s (ino %d, %d bytes)\n", rest[0], attr.Handle.Ino, len(data))
		if cred != "" {
			fmt.Print(cred)
		}

	case "mkdir":
		if len(rest) != 1 {
			usage()
		}
		attr, cred, err := c.MkdirPath(ctx, rest[0])
		check(err)
		fmt.Fprintf(os.Stderr, "created %s (ino %d)\n", rest[0], attr.Handle.Ino)
		fmt.Print(cred)

	case "rm":
		if len(rest) != 1 {
			usage()
		}
		dirAttr, name, err := splitForRemove(ctx, c, rest[0])
		check(err)
		check(c.NFS().Remove(ctx, dirAttr, name))

	case "submit":
		if len(rest) == 0 {
			usage()
		}
		total := 0
		for _, f := range rest {
			text, err := os.ReadFile(f)
			check(err)
			n, err := c.SubmitCredentialText(ctx, string(text))
			check(err)
			total += n
		}
		fmt.Printf("submitted %d credential(s)\n", total)

	case "revoke-key":
		if len(rest) != 1 {
			usage()
		}
		n, err := c.RevokeKey(ctx, discfs.Principal(rest[0]))
		check(err)
		fmt.Printf("revoked; %d credential(s) dropped\n", n)

	case "revoke-cred":
		if len(rest) != 1 {
			usage()
		}
		text, err := os.ReadFile(rest[0])
		check(err)
		creds, err := discfs.ParseCredentials(string(text))
		check(err)
		for _, cr := range creds {
			found, err := c.RevokeCredential(ctx, cr.SignatureValue)
			check(err)
			fmt.Printf("revoked (present: %v)\n", found)
		}

	case "creds":
		list, err := c.ListCredentials(ctx)
		check(err)
		for i, cr := range list {
			fmt.Printf("# credential %d\n%s\n", i+1, cr)
		}

	case "stats":
		st, err := c.ServerStats(ctx)
		check(err)
		fmt.Printf("compliance queries: %d\ncache hits:         %d\ncache misses:       %d\ncredentials:        %d\ndecisions:          %d\ndenials:            %d\n",
			st.Queries, st.CacheHits, st.CacheMisses, st.Credentials, st.Decisions, st.Denials)
		fmt.Printf("writes gathered:    %d\nbackend writes:     %d\ncommits:            %d\nwrite queue depth:  %d\n",
			st.WritesGathered, st.BackendWrites, st.Commits, st.WriteQueueDepth)

	default:
		usage()
	}
}

// splitForRemove resolves the parent directory handle and leaf name.
func splitForRemove(ctx context.Context, c *discfs.Client, path string) (discfs.Handle, string, error) {
	dir := "/"
	name := path
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			dir, name = path[:i], path[i+1:]
			break
		}
	}
	if dir == "" {
		dir = "/"
	}
	attr, err := c.ResolvePath(ctx, dir)
	if err != nil {
		return discfs.Handle{}, "", err
	}
	return attr.Handle, name, nil
}

// check exits on err, printing it once under the command's prefix —
// the library's errors usually carry it already.
func check(err error) {
	if err != nil {
		msg := err.Error()
		if !strings.HasPrefix(msg, "discfs: ") {
			msg = "discfs: " + msg
		}
		fmt.Fprintln(os.Stderr, msg)
		os.Exit(1)
	}
}
