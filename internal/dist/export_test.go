package dist

// MakeInput shares the test text generator with the external tests.
var MakeInput = makeInput
