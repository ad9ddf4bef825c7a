package textproc

// StopSet is a set of stopwords. Membership tests use the normalized
// (lowercase) surface form before stemming.
type StopSet map[string]struct{}

// defaultStopwords is a standard English stopword list (a superset of
// the SMART/Glasgow core) matching the "common words like 'the' and 'a'"
// removal step in §V-A of the paper.
var defaultStopwords = []string{
	"a", "about", "above", "after", "again", "against", "all", "also", "am",
	"an", "and", "any", "are", "aren't", "as", "at", "be", "because", "been",
	"before", "being", "below", "between", "both", "but", "by", "can",
	"can't", "cannot", "could", "couldn't", "did", "didn't", "do", "does",
	"doesn't", "doing", "don't", "down", "during", "each", "else", "ever",
	"few", "for", "from", "further", "get", "got", "had", "hadn't", "has",
	"hasn't", "have", "haven't", "having", "he", "he'd", "he'll", "he's",
	"her", "here", "here's", "hers", "herself", "him", "himself", "his",
	"how", "how's", "however", "i", "i'd", "i'll", "i'm", "i've", "if", "in",
	"into", "is", "isn't", "it", "it's", "its", "itself", "just", "let's",
	"like", "me", "more", "most", "mustn't", "my", "myself", "no", "nor",
	"not", "of", "off", "on", "once", "only", "or", "other", "ought", "our",
	"ours", "ourselves", "out", "over", "own", "per", "same", "shall",
	"shan't", "she", "she'd", "she'll", "she's", "should", "shouldn't",
	"since", "so", "some", "such", "than", "that", "that's", "the", "their",
	"theirs", "them", "themselves", "then", "there", "there's", "these",
	"they", "they'd", "they'll", "they're", "they've", "this", "those",
	"through", "to", "too", "under", "until", "up", "upon", "us", "very",
	"was", "wasn't", "we", "we'd", "we'll", "we're", "we've", "were",
	"weren't", "what", "what's", "when", "when's", "where", "where's",
	"which", "while", "who", "who's", "whom", "why", "why's", "will", "with",
	"within", "without", "won't", "would", "wouldn't", "yet", "you", "you'd",
	"you'll", "you're", "you've", "your", "yours", "yourself", "yourselves",
}

// DefaultStopSet returns a fresh copy of the built-in English stopword
// set. Callers may add or remove entries without affecting other users.
func DefaultStopSet() StopSet {
	s := make(StopSet, len(defaultStopwords))
	for _, w := range defaultStopwords {
		s[w] = struct{}{}
	}
	return s
}

// Contains reports whether w is a stopword.
func (s StopSet) Contains(w string) bool {
	_, ok := s[w]
	return ok
}

// Add inserts words into the set.
func (s StopSet) Add(words ...string) {
	for _, w := range words {
		s[w] = struct{}{}
	}
}

// Len returns the number of stopwords in the set.
func (s StopSet) Len() int { return len(s) }
