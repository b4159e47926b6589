package bad

// codecCases mirrors the wire package's fuzz seed corpus shape; the
// analyzer reads its keys syntactically (this file is parsed, never
// compiled — testdata packages are invisible to go test ./...).
var codecCases = map[string]func() []byte{
	"Registered":  func() []byte { return Registered{C: 7}.AppendTo(nil) },
	"IntoOnly":    func() []byte { return IntoOnly{E: 7}.AppendTo(nil) },
	"TwoDecoders": func() []byte { return TwoDecoders{F: 7}.AppendTo(nil) },
}
