package main

import "testing"

func TestParseUsers(t *testing.T) {
	tests := []struct {
		in      string
		dataset string
		want    int
		wantErr bool
	}{
		{in: "2000", dataset: "facebook", want: 2000},
		{in: "paper", dataset: "facebook", want: 13884},
		{in: "paper", dataset: "twitter", want: 14933},
		{in: "0", dataset: "facebook", wantErr: true},
		{in: "-5", dataset: "facebook", wantErr: true},
		{in: "abc", dataset: "facebook", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseUsers(tt.in, tt.dataset)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseUsers(%q,%q) err = %v", tt.in, tt.dataset, err)
			continue
		}
		if err == nil && got != tt.want {
			t.Errorf("parseUsers(%q,%q) = %d, want %d", tt.in, tt.dataset, got, tt.want)
		}
	}
}
