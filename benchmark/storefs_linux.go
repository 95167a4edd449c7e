package main

import "syscall"

// storeFS reports whether dir is on tmpfs or on a disk-backed
// filesystem. WAL fsyncs cost nothing on tmpfs and dominate small
// document loads on disk, so results compare only within one kind.
func storeFS(dir string) string {
	const tmpfsMagic = 0x01021994
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if st.Type == tmpfsMagic {
		return "tmpfs"
	}
	return "disk"
}
