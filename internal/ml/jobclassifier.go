package ml

import "mcbound/internal/job"

// JobClassifier is the job-level contract the online workflows use: some
// models (the lookup baseline) consume raw jobs, others (KNN, RF) consume
// encodings produced by a Feature Encoder.
type JobClassifier interface {
	// TrainJobs fits the model on raw jobs and their ground-truth labels.
	TrainJobs(jobs []*job.Job, labels []job.Label) error
	// PredictJobs classifies raw jobs.
	PredictJobs(jobs []*job.Job) ([]job.Label, error)
	// Name identifies the algorithm.
	Name() string
}
