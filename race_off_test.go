//go:build !race

package xmlrdb_test

const raceEnabled = false
