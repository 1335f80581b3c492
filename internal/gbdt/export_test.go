package gbdt

// Hooks for the external tests in package gbdt_test.
var (
	RefTrain   = refTrain
	DiffModels = diffModels
)
