// Fileserver: migrate a file system process while user processes perform
// I/O — the paper's own test example (§2.3: "This is more difficult than
// moving a user process").
//
// Four clients continuously create/write/read/verify files through link
// data areas. Mid-storm, the file server process is migrated to another
// machine. Every in-flight operation must complete and every byte verify.
//
// Run: go run ./examples/fileserver
package main

import (
	"fmt"
	"log"

	"demosmp"
)

func main() {
	c, err := demosmp.New(demosmp.Options{
		Machines:    3,
		Switchboard: true,
		PM:          true,
		FS:          true, // boots disk, cache, file, dir servers on m1
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("file system up on m1: disk=%v cache=%v file=%v dir=%v\n",
		c.DiskPID, c.CachePID, c.FilePID, c.DirPID)

	const clients, rounds = 4, 12
	var pids []demosmp.ProcessID
	for i := 0; i < clients; i++ {
		pid, err := c.SpawnFSClient(2, fmt.Sprintf("data%d", i), rounds, 600)
		if err != nil {
			log.Fatal(err)
		}
		pids = append(pids, pid)
	}

	// Let the I/O storm build, then move the file server out from under it.
	c.RunFor(100000)
	fmt.Printf("t=%v: clients mid-I/O; migrating the file server m1 -> m3\n", c.Now())
	if err := c.Migrate(c.FilePID, 3); err != nil {
		log.Fatal(err)
	}
	c.Run()

	at, _ := c.Locate(c.FilePID)
	fmt.Printf("t=%v: file server now on %v\n", c.Now(), at)
	allOK := true
	for i, pid := range pids {
		e, m, ok := c.ExitOf(pid)
		status := "FAILED"
		if ok && e.Code == rounds {
			status = "all rounds verified"
		} else {
			allOK = false
		}
		fmt.Printf("  client %d (on %v): %d/%d — %s\n", i, m, e.Code, rounds, status)
	}

	s := c.Stats()
	fmt.Printf("\nmessages forwarded during the move: %d (+ %d queued messages resent)\n",
		s.TotalForwarded(), s.PerKernel[1].ForwardedPending)
	fmt.Printf("link updates sent: %d\n", s.TotalLinkUpdates())
	if !allOK {
		log.Fatal("a client lost or corrupted an operation")
	}
	fmt.Println("\nno operation was lost, duplicated, or corrupted — transparency held.")
}
