package serve

// next is nextInto with fresh storage for every batch: the queue tests
// take batches without handing any back.
func (q *queue) next() ([]*request, bool) { return q.nextInto(nil) }
