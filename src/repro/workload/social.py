"""Synthetic social graphs and Graph-Search-style patterns.

Stands in for the web graphs of [11] (billions of nodes) behind the
paper's graph claims: "60% of graph pattern queries via subgraph
isomorphism are boundedly evaluable ... outperforms conventional
subgraph isomorphism methods by 4 orders of magnitude" (Section 1).

The generated graph mimics a social network:

* ``person`` nodes with ``friend`` edges (bounded degree — the
  real-world cap Facebook enforces, 5000),
* ``city`` nodes with ``lives_in`` edges (exactly one per person),
* ``interest`` nodes with ``likes`` edges (bounded per person).

``graph_search_pattern`` is the paper's personalized-search example:
"find me all my friends in NYC who like cycling" — a pattern whose only
expensive node ("friends") is reachable from the designated constant
"me" through a degree-bounded edge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..graph.access import (DegreeConstraint, GraphAccessSchema,
                            LabelCountConstraint)
from ..graph.graph import Graph
from ..graph.pattern import Pattern, PatternEdge, PatternNode
from ..schema.access import AccessConstraint, AccessSchema
from ..schema.relation import Schema
from ..storage.database import Database
from .accidents import BackendFactory

CITIES = ["nyc", "london", "paris", "tokyo", "berlin", "sydney",
          "toronto", "madrid"]
INTERESTS = ["cycling", "chess", "jazz", "climbing", "cooking",
             "photography", "sailing", "gardening"]


@dataclass
class SocialScale:
    """Size knobs for the social-graph generator."""

    persons: int = 500
    max_friends: int = 20
    max_likes: int = 5
    seed: int = 11


def social_graph(scale: SocialScale | None = None) -> Graph:
    """Generate a social graph honouring the degree bounds.

    Friendship is stored as two directed edges (both directions), so a
    single out-degree constraint covers traversal either way.
    """
    scale = scale or SocialScale()
    rng = random.Random(scale.seed)
    graph = Graph()
    for city in CITIES:
        graph.add_node(("city", city), "city")
    for interest in INTERESTS:
        graph.add_node(("interest", interest), "interest")
    for person in range(scale.persons):
        graph.add_node(("person", person), "person")

    friend_count = {p: 0 for p in range(scale.persons)}
    for person in range(scale.persons):
        graph.add_edge(("person", person), "lives_in",
                       ("city", rng.choice(CITIES)))
        for interest in rng.sample(INTERESTS,
                                   rng.randint(1, scale.max_likes)):
            graph.add_edge(("person", person), "likes",
                           ("interest", interest))
        # Friendships: preferential-attachment flavoured, capped.
        budget = rng.randint(0, scale.max_friends // 2)
        for _ in range(budget):
            other = rng.randrange(scale.persons)
            if other == person:
                continue
            if (friend_count[person] >= scale.max_friends
                    or friend_count[other] >= scale.max_friends):
                continue
            if graph.has_edge(("person", person), "friend",
                              ("person", other)):
                continue
            graph.add_edge(("person", person), "friend", ("person", other))
            graph.add_edge(("person", other), "friend", ("person", person))
            friend_count[person] += 1
            friend_count[other] += 1
    return graph


def social_access_schema(scale: SocialScale | None = None
                         ) -> GraphAccessSchema:
    """The access constraints the generated graph satisfies by design."""
    scale = scale or SocialScale()
    return GraphAccessSchema([
        LabelCountConstraint("city", len(CITIES)),
        LabelCountConstraint("interest", len(INTERESTS)),
        DegreeConstraint("friend", scale.max_friends, "out", "person"),
        DegreeConstraint("lives_in", 1, "out", "person"),
        DegreeConstraint("likes", scale.max_likes, "out", "person"),
    ])


def social_relational_schema() -> Schema:
    """The social graph as relations, for the bounded *relational*
    engine (edge lists per label)."""
    return Schema.from_dict({
        "Friend": ("src", "dst"),
        "LivesIn": ("person", "city"),
        "Likes": ("person", "interest"),
    })


def social_relational_access(scale: SocialScale | None = None,
                             schema: Schema | None = None) -> AccessSchema:
    """The relational reading of :func:`social_access_schema`."""
    scale = scale or SocialScale()
    schema = schema or social_relational_schema()
    return AccessSchema(schema, [
        AccessConstraint("Friend", ("src",), ("dst",), scale.max_friends),
        AccessConstraint("LivesIn", ("person",), ("city",), 1),
        AccessConstraint("Likes", ("person",), ("interest",),
                         scale.max_likes),
    ])


def relational_social(scale: SocialScale | None = None,
                      backend_factory: BackendFactory = None) -> Database:
    """The social graph of :func:`social_graph`, encoded relationally
    so the bounded engine (rather than the graph matcher) serves
    Graph-Search traffic.  ``backend_factory`` picks the storage
    engine, e.g. ``lambda s: ProcessShardedBackend(s, workers=4)``.
    """
    scale = scale or SocialScale()
    graph = social_graph(scale)
    schema = social_relational_schema()
    db = Database(schema, social_relational_access(scale, schema),
                  backend=backend_factory(schema) if backend_factory
                  else None)
    friends, lives, likes = [], [], []
    for node in graph.nodes_by_label("person"):
        person = f"p{node[1]}"
        for other in graph.out_neighbors(node, "friend"):
            friends.append((person, f"p{other[1]}"))
        for city in graph.out_neighbors(node, "lives_in"):
            lives.append((person, city[1]))
        for interest in graph.out_neighbors(node, "likes"):
            likes.append((person, interest[1]))
    db.insert_many("Friend", friends)
    db.insert_many("LivesIn", lives)
    db.insert_many("Likes", likes)
    return db


def graph_search_pattern(me, city: str = "nyc",
                         interest: str = "cycling") -> Pattern:
    """"Find me all my friends in ``city`` who like ``interest``"."""
    return Pattern(
        "graph_search",
        nodes=[
            PatternNode("me", "person", constant=me),
            PatternNode("f", "person"),
            PatternNode("c", "city", constant=("city", city)),
            PatternNode("i", "interest", constant=("interest", interest)),
        ],
        edges=[
            PatternEdge("me", "friend", "f"),
            PatternEdge("f", "lives_in", "c"),
            PatternEdge("f", "likes", "i"),
        ],
        output=("f",),
    )


def random_pattern(rng: random.Random, scale: SocialScale,
                   name: str = "P") -> Pattern:
    """A random Graph-Search-flavoured pattern.

    A mix of shapes: some anchored at a designated person ("me"), some
    anchored only at a city/interest, some floating (person-to-person
    paths without any anchor — typically *not* boundedly evaluable,
    which is how the workload reproduces a ~60% coverage rate rather
    than 100%).
    """
    me = ("person", rng.randrange(scale.persons))
    nodes = [PatternNode("p0", "person",
                         constant=me if rng.random() < 0.6 else None)]
    edges = []
    length = rng.randint(1, 2)
    for i in range(length):
        nodes.append(PatternNode(f"p{i + 1}", "person"))
        edges.append(PatternEdge(f"p{i}", "friend", f"p{i + 1}"))
    tail = f"p{length}"
    if rng.random() < 0.5:
        nodes.append(PatternNode("c", "city",
                                 constant=("city", rng.choice(CITIES))))
        edges.append(PatternEdge(tail, "lives_in", "c"))
    if rng.random() < 0.5:
        nodes.append(PatternNode("i", "interest"))
        edges.append(PatternEdge(tail, "likes", "i"))
    output = (tail,)
    return Pattern(name, nodes, edges, output)


def generate_patterns(n: int, scale: SocialScale | None = None,
                      seed: int = 23) -> list[Pattern]:
    scale = scale or SocialScale()
    rng = random.Random(seed)
    return [random_pattern(rng, scale, name=f"P{i}") for i in range(n)]
