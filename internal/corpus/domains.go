// Package corpus generates the labelled synthetic webpage dataset that
// substitutes for the paper's 655K crawled pages (Jasmine Directory + SWDE,
// §IV-A1). Each generated page is real HTML — rendered through
// internal/htmldom and normalised through internal/textproc exactly like an
// external page would be — and carries the three ground-truth signals the
// models consume: the topic phrase, the key-attribute token spans, and the
// per-sentence informative-section labels.
//
// Pages are built structure-first: a list of sections, each a list of
// sentences with attribute annotations, is generated, then serialised to
// HTML. The generator guarantees (and tests assert) that rendering the HTML
// and re-normalising it reproduces the structure's token stream, so labels
// align with model inputs by construction. The corpus produces pages;
// wb.NewInstance turns them into model input.
package corpus

// AttrKind selects how an attribute's value is synthesised.
type AttrKind int

// Attribute value kinds.
const (
	KindPhrase AttrKind = iota // 1–3 words from the domain vocabulary
	KindMoney                  // $<digit>.<digit>
	KindNumber                 // bare <digit>
	KindName                   // person name from the shared name pools
)

// AttrSchema is one attribute type a domain's pages carry, e.g. {“price”,
// KindMoney} on shopping pages.
type AttrSchema struct {
	Label string
	Kind  AttrKind
}

// AttrStyle selects how a domain's pages phrase their attribute sentences.
// Styles are what make attribute extraction non-trivially domain-dependent:
// a model trained only on colon-style domains must adapt to the formats of
// unseen domains, which is exactly the gap Dual-/Tri-Distill close in the
// paper's Table V.
type AttrStyle int

// Attribute sentence styles.
const (
	// StyleColon phrases attributes as "label : value" (most common).
	StyleColon AttrStyle = iota
	// StyleParen phrases them as "value ( label )".
	StyleParen
	// StyleDash phrases them as "label - value".
	StyleDash
	// StyleBare phrases them as "label value" with no separator. No seen
	// domain uses it, so it is only learnable from unseen-domain data.
	StyleBare
)

// Domain is one webpage topic category, the unit of the paper's seen/unseen
// splits (153 Jasmine topics + 7 SWDE topics there; 24 domains here).
type Domain struct {
	Name  string   // stable identifier, e.g. "books"
	Topic []string // the ground-truth topic phrase, already normalised
	Attrs [4]AttrSchema
	Words []string  // domain-distinctive content vocabulary
	Style AttrStyle // how attribute sentences are phrased
}

// domainStyles assigns attribute-sentence styles by position. The first 16
// domains (the usual "seen" pool) are mostly colon-style with a small
// admixture of paren/dash, so those formats are familiar but rare; the last
// 8 (the usual "unseen" pool) lean on paren/dash and introduce StyleBare,
// which no seen domain ever uses — mirroring how real unseen websites phrase
// content in ways the training data never showed.
var domainStyles = []AttrStyle{
	StyleColon, StyleColon, StyleColon, StyleColon, StyleColon, StyleParen,
	StyleColon, StyleColon, StyleColon, StyleColon, StyleColon, StyleDash,
	StyleColon, StyleColon, StyleColon, StyleColon,
	StyleParen, StyleDash, StyleBare, StyleParen, StyleDash, StyleBare,
	StyleBare, StyleParen,
}

// Domains returns the full set of 24 webpage domains in a fixed order. The
// slice is freshly allocated; callers may re-slice it for seen/unseen
// splits.
func Domains() []Domain {
	ds := domainList()
	for i := range ds {
		ds[i].Style = domainStyles[i]
	}
	return ds
}

func domainList() []Domain {
	return []Domain{
		{
			Name:  "books",
			Topic: []string{"book", "shopping", "website"},
			Attrs: [4]AttrSchema{{"title", KindPhrase}, {"author", KindName}, {"price", KindMoney}, {"pages", KindNumber}},
			Words: []string{"book", "novel", "hardcover", "paperback", "edition", "chapter", "publisher", "bestseller", "fiction", "reading", "library", "bookstore", "literature", "printing"},
		},
		{
			Name:  "jobs",
			Topic: []string{"job", "recruitment", "website"},
			Attrs: [4]AttrSchema{{"position", KindPhrase}, {"company", KindPhrase}, {"salary", KindMoney}, {"openings", KindNumber}},
			Words: []string{"engineer", "manager", "analyst", "developer", "career", "hiring", "resume", "interview", "salary", "benefits", "fulltime", "remote", "candidate", "recruiter"},
		},
		{
			Name:  "sportsnews",
			Topic: []string{"sports", "news", "website"},
			Attrs: [4]AttrSchema{{"headline", KindPhrase}, {"reporter", KindName}, {"score", KindNumber}, {"attendance", KindNumber}},
			Words: []string{"match", "season", "championship", "league", "tournament", "coach", "playoffs", "stadium", "victory", "defense", "striker", "transfer", "injury", "goalkeeper"},
		},
		{
			Name:  "recipes",
			Topic: []string{"recipe", "cooking", "website"},
			Attrs: [4]AttrSchema{{"dish", KindPhrase}, {"chef", KindName}, {"minutes", KindNumber}, {"servings", KindNumber}},
			Words: []string{"recipe", "ingredients", "oven", "baking", "simmer", "garlic", "butter", "flour", "seasoning", "skillet", "roasted", "marinade", "tablespoon", "whisk"},
		},
		{
			Name:  "hotels",
			Topic: []string{"hotel", "booking", "website"},
			Attrs: [4]AttrSchema{{"hotel", KindPhrase}, {"city", KindPhrase}, {"rate", KindMoney}, {"rooms", KindNumber}},
			Words: []string{"hotel", "suite", "reservation", "checkin", "amenities", "lobby", "concierge", "breakfast", "oceanview", "resort", "housekeeping", "nightly", "vacancy", "guest"},
		},
		{
			Name:  "cars",
			Topic: []string{"car", "sales", "website"},
			Attrs: [4]AttrSchema{{"model", KindPhrase}, {"dealer", KindPhrase}, {"price", KindMoney}, {"mileage", KindNumber}},
			Words: []string{"sedan", "engine", "transmission", "horsepower", "dealership", "warranty", "hybrid", "mileage", "torque", "airbags", "convertible", "diesel", "towing", "chassis"},
		},
		{
			Name:  "courses",
			Topic: []string{"university", "course", "website"},
			Attrs: [4]AttrSchema{{"course", KindPhrase}, {"instructor", KindName}, {"credits", KindNumber}, {"enrollment", KindNumber}},
			Words: []string{"lecture", "syllabus", "semester", "campus", "professor", "tutorial", "assignment", "curriculum", "seminar", "faculty", "undergraduate", "prerequisite", "thesis", "exam"},
		},
		{
			Name:  "movies",
			Topic: []string{"movie", "review", "website"},
			Attrs: [4]AttrSchema{{"film", KindPhrase}, {"director", KindName}, {"rating", KindNumber}, {"runtime", KindNumber}},
			Words: []string{"film", "screenplay", "cinematography", "premiere", "trailer", "actor", "thriller", "blockbuster", "soundtrack", "audience", "critics", "drama", "sequel", "cast"},
		},
		{
			Name:  "music",
			Topic: []string{"music", "streaming", "website"},
			Attrs: [4]AttrSchema{{"album", KindPhrase}, {"artist", KindName}, {"tracks", KindNumber}, {"listeners", KindNumber}},
			Words: []string{"album", "playlist", "acoustic", "vinyl", "concert", "melody", "chorus", "studio", "remix", "vocals", "rhythm", "guitar", "streaming", "lyrics"},
		},
		{
			Name:  "travel",
			Topic: []string{"travel", "guide", "website"},
			Attrs: [4]AttrSchema{{"destination", KindPhrase}, {"guide", KindName}, {"days", KindNumber}, {"budget", KindMoney}},
			Words: []string{"itinerary", "sightseeing", "passport", "excursion", "landmark", "souvenir", "airfare", "backpacking", "museum", "coastline", "hiking", "cathedral", "tropical", "voyage"},
		},
		{
			Name:  "realestate",
			Topic: []string{"real", "estate", "website"},
			Attrs: [4]AttrSchema{{"property", KindPhrase}, {"agent", KindName}, {"price", KindMoney}, {"bedrooms", KindNumber}},
			Words: []string{"apartment", "mortgage", "listing", "basement", "backyard", "renovated", "square", "footage", "realtor", "downtown", "garage", "hardwood", "utilities", "tenant"},
		},
		{
			Name:  "electronics",
			Topic: []string{"electronics", "shopping", "website"},
			Attrs: [4]AttrSchema{{"product", KindPhrase}, {"brand", KindPhrase}, {"price", KindMoney}, {"warranty", KindNumber}},
			Words: []string{"laptop", "smartphone", "processor", "battery", "display", "wireless", "charger", "bluetooth", "gigabyte", "headphones", "keyboard", "monitor", "tablet", "firmware"},
		},
		{
			Name:  "health",
			Topic: []string{"health", "advice", "website"},
			Attrs: [4]AttrSchema{{"condition", KindPhrase}, {"doctor", KindName}, {"dosage", KindNumber}, {"duration", KindNumber}},
			Words: []string{"symptoms", "treatment", "diagnosis", "prescription", "vitamins", "immune", "allergy", "therapy", "wellness", "nutrition", "clinic", "vaccine", "chronic", "recovery"},
		},
		{
			Name:  "fitness",
			Topic: []string{"fitness", "training", "website"},
			Attrs: [4]AttrSchema{{"workout", KindPhrase}, {"trainer", KindName}, {"reps", KindNumber}, {"calories", KindNumber}},
			Words: []string{"workout", "cardio", "strength", "treadmill", "dumbbell", "stretching", "endurance", "muscles", "squats", "yoga", "pilates", "warmup", "hydration", "posture"},
		},
		{
			Name:  "pets",
			Topic: []string{"pet", "adoption", "website"},
			Attrs: [4]AttrSchema{{"pet", KindPhrase}, {"shelter", KindPhrase}, {"fee", KindMoney}, {"age", KindNumber}},
			Words: []string{"puppy", "kitten", "adoption", "veterinary", "grooming", "leash", "vaccinated", "neutered", "foster", "breed", "terrier", "whiskers", "paws", "kennel"},
		},
		{
			Name:  "events",
			Topic: []string{"event", "ticket", "website"},
			Attrs: [4]AttrSchema{{"event", KindPhrase}, {"venue", KindPhrase}, {"price", KindMoney}, {"capacity", KindNumber}},
			Words: []string{"festival", "concert", "venue", "tickets", "admission", "lineup", "headliner", "backstage", "seating", "doors", "performance", "encore", "matinee", "usher"},
		},
		{
			Name:  "garden",
			Topic: []string{"garden", "supply", "website"},
			Attrs: [4]AttrSchema{{"plant", KindPhrase}, {"nursery", KindPhrase}, {"price", KindMoney}, {"height", KindNumber}},
			Words: []string{"seedling", "perennial", "fertilizer", "compost", "pruning", "greenhouse", "blossom", "mulch", "trellis", "watering", "shrub", "foliage", "pollinator", "orchid"},
		},
		{
			Name:  "fashion",
			Topic: []string{"fashion", "shopping", "website"},
			Attrs: [4]AttrSchema{{"item", KindPhrase}, {"designer", KindName}, {"price", KindMoney}, {"sizes", KindNumber}},
			Words: []string{"dress", "jacket", "denim", "leather", "runway", "boutique", "tailored", "fabric", "collection", "sneakers", "accessories", "vintage", "wardrobe", "silhouette"},
		},
		{
			Name:  "software",
			Topic: []string{"software", "download", "website"},
			Attrs: [4]AttrSchema{{"application", KindPhrase}, {"vendor", KindPhrase}, {"license", KindMoney}, {"downloads", KindNumber}},
			Words: []string{"installer", "update", "plugin", "interface", "database", "encryption", "backup", "compatibility", "changelog", "toolkit", "framework", "repository", "debugger", "runtime"},
		},
		{
			Name:  "games",
			Topic: []string{"game", "review", "website"},
			Attrs: [4]AttrSchema{{"game", KindPhrase}, {"studio", KindPhrase}, {"score", KindNumber}, {"hours", KindNumber}},
			Words: []string{"gameplay", "multiplayer", "quest", "console", "graphics", "storyline", "character", "dungeon", "achievements", "expansion", "arcade", "puzzle", "leaderboard", "campaign"},
		},
		{
			Name:  "finance",
			Topic: []string{"finance", "news", "website"},
			Attrs: [4]AttrSchema{{"headline", KindPhrase}, {"analyst", KindName}, {"index", KindNumber}, {"change", KindNumber}},
			Words: []string{"market", "stocks", "earnings", "dividend", "portfolio", "inflation", "revenue", "investors", "quarterly", "shares", "bonds", "forecast", "merger", "volatility"},
		},
		{
			Name:  "insurance",
			Topic: []string{"insurance", "quote", "website"},
			Attrs: [4]AttrSchema{{"policy", KindPhrase}, {"insurer", KindPhrase}, {"premium", KindMoney}, {"coverage", KindNumber}},
			Words: []string{"premium", "deductible", "liability", "claim", "coverage", "policyholder", "underwriting", "renewal", "quote", "collision", "comprehensive", "actuary", "beneficiary", "copay"},
		},
		{
			Name:  "restaurants",
			Topic: []string{"restaurant", "menu", "website"},
			Attrs: [4]AttrSchema{{"dish", KindPhrase}, {"chef", KindName}, {"price", KindMoney}, {"tables", KindNumber}},
			Words: []string{"appetizer", "entree", "dessert", "cuisine", "bistro", "reservation", "sommelier", "tasting", "grilled", "organic", "patio", "brunch", "specials", "dining"},
		},
		{
			Name:  "art",
			Topic: []string{"art", "gallery", "website"},
			Attrs: [4]AttrSchema{{"artwork", KindPhrase}, {"artist", KindName}, {"price", KindMoney}, {"year", KindNumber}},
			Words: []string{"painting", "sculpture", "canvas", "exhibition", "watercolor", "portrait", "abstract", "curator", "gallery", "installation", "sketch", "palette", "ceramics", "etching"},
		},
	}
}

// DomainByName returns the domain with the given name, or nil.
func DomainByName(name string) *Domain {
	ds := Domains()
	for i := range ds {
		if ds[i].Name == name {
			return &ds[i]
		}
	}
	return nil
}

// firstNames and lastNames feed KindName attribute values; they are shared
// across domains like real person names are.
var firstNames = []string{
	"emma", "liam", "olivia", "noah", "ava", "ethan", "sophia", "mason",
	"isabella", "logan", "mia", "lucas", "charlotte", "oliver", "amelia", "elijah",
}

var lastNames = []string{
	"smith", "johnson", "williams", "brown", "jones", "garcia", "miller",
	"davis", "rodriguez", "martinez", "wilson", "anderson", "taylor", "thomas",
}

// boilerplateSentences is the shared pool of non-informative content:
// navigation, account chrome, legal footers, and ads. They appear on pages
// of every domain, which is what makes informative-section prediction a
// learnable, non-trivial task.
var boilerplateSentences = [][]string{
	{"home", "about", "contact", "help"},
	{"sign", "in", "or", "register", "for", "free"},
	{"copyright", "<digit>", "all", "rights", "reserved"},
	{"subscribe", "to", "our", "newsletter", "today"},
	{"follow", "us", "on", "social", "media"},
	{"privacy", "policy", "and", "terms", "of", "service"},
	{"buy", "now", "limited", "time", "offer"},
	{"free", "shipping", "on", "orders", "over", "$", "<digit>"},
	{"download", "our", "mobile", "app", "now"},
	{"join", "<digit>", "million", "happy", "customers"},
	{"advertisement", "sponsored", "content"},
	{"cookie", "settings", "accept", "all", "cookies"},
	{"support", ":", "contact", "us", "anytime"},
	{"hours", ":", "open", "every", "day"},
	{"site", "map", "careers", "press", "blog"},
	{"customer", "support", "available", "<digit>", "hours"},
	{"back", "to", "top", "of", "page"},
}

// fillerConnectives build informative filler sentences around the domain
// vocabulary.
var fillerConnectives = [][2]string{
	{"the", "is popular with visitors"},
	{"this", "has excellent quality"},
	{"our", "was updated recently"},
	{"every", "comes highly recommended"},
	{"a", "is available here"},
}
