//! Composed models: Replicate and Join with shared places.
//!
//! Möbius builds system models from atomic SANs with two operators:
//!
//! * **Replicate** — `n` copies of a submodel, with a designated subset of
//!   places *shared* (a single place common to all copies);
//! * **Join** — several submodels glued together by sharing designated
//!   places.
//!
//! The ITUA composed model (paper Figure 2(a)) is
//!
//! ```text
//! Join1(
//!   Rep1(num_apps,  Join2( Rep(num_reps, Replica), Management )),
//!   Rep2(num_domains, RepH(num_hosts, Host)),
//! )
//! ```
//!
//! This module flattens such a tree into a single [`San`]: shared places
//! are allocated once at the level that declares them, local places get
//! hierarchical names like `apps[2]/replica[4]/has_started`.

use crate::marking::PlaceId;
use crate::model::{ActivityBuilder, San, SanBuilder, SanError, ValueFn};
use std::collections::BTreeMap;
use std::sync::Arc;

/// A place shared among the children of a composition node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedPlace {
    /// The local name submodels use to refer to it.
    pub name: String,
    /// Initial marking.
    pub init: i32,
}

impl SharedPlace {
    /// Convenience constructor.
    pub fn new(name: impl Into<String>, init: i32) -> Self {
        SharedPlace {
            name: name.into(),
            init,
        }
    }
}

/// A template that knows how to populate one atomic submodel.
///
/// The same template is invoked once per replica when placed under a
/// [`Node::Rep`]; `builder.rep_indices()` tells it which copy it is.
pub trait SanTemplate: Send + Sync {
    /// Adds this submodel's places and activities to the builder.
    ///
    /// # Errors
    ///
    /// Returns [`SanError`] if an activity definition is invalid.
    fn build(&self, builder: &mut SubnetBuilder<'_>) -> Result<(), SanError>;
}

impl<F> SanTemplate for F
where
    F: Fn(&mut SubnetBuilder<'_>) -> Result<(), SanError> + Send + Sync,
{
    fn build(&self, builder: &mut SubnetBuilder<'_>) -> Result<(), SanError> {
        self(builder)
    }
}

/// A node in the composed-model tree.
pub enum Node {
    /// An atomic SAN produced by a template.
    Atomic {
        /// Submodel name (used in hierarchical place names).
        name: String,
        /// The template that builds it.
        template: Arc<dyn SanTemplate>,
    },
    /// `count` copies of `child`, with `shared` places common to all copies.
    Rep {
        /// Node name.
        name: String,
        /// Number of copies.
        count: usize,
        /// Places shared across the copies.
        shared: Vec<SharedPlace>,
        /// The replicated submodel.
        child: Box<Node>,
    },
    /// Several submodels with `shared` places common to all of them.
    Join {
        /// Node name.
        name: String,
        /// Places shared across the children.
        shared: Vec<SharedPlace>,
        /// The joined submodels.
        children: Vec<Node>,
    },
}

impl Node {
    /// Convenience constructor for an atomic node.
    pub fn atomic(name: impl Into<String>, template: Arc<dyn SanTemplate>) -> Node {
        Node::Atomic {
            name: name.into(),
            template,
        }
    }

    /// Convenience constructor for a Rep node.
    pub fn rep(
        name: impl Into<String>,
        count: usize,
        shared: Vec<SharedPlace>,
        child: Node,
    ) -> Node {
        Node::Rep {
            name: name.into(),
            count,
            shared,
            child: Box::new(child),
        }
    }

    /// Convenience constructor for a Join node.
    pub fn join(name: impl Into<String>, shared: Vec<SharedPlace>, children: Vec<Node>) -> Node {
        Node::Join {
            name: name.into(),
            shared,
            children,
        }
    }
}

impl std::fmt::Debug for Node {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Node::Atomic { name, .. } => write!(f, "Atomic({name})"),
            Node::Rep {
                name, count, child, ..
            } => write!(f, "Rep({name} × {count}, {child:?})"),
            Node::Join { name, children, .. } => write!(f, "Join({name}, {children:?})"),
        }
    }
}

/// A composed model: a tree of Rep/Join/Atomic nodes.
#[derive(Debug)]
pub struct ComposedModel {
    name: String,
    root: Node,
}

impl ComposedModel {
    /// Creates a composed model with the given root.
    pub fn new(name: impl Into<String>, root: Node) -> Self {
        ComposedModel {
            name: name.into(),
            root,
        }
    }

    /// Flattens the tree into a single solvable [`San`].
    ///
    /// # Errors
    ///
    /// Propagates template errors and rejects empty models.
    pub fn flatten(&self) -> Result<Arc<San>, SanError> {
        let mut builder = SanBuilder::new(self.name.clone());
        let mut rep_indices = Vec::new();
        Self::walk(
            &self.root,
            &mut builder,
            String::new(),
            &BTreeMap::new(),
            &mut rep_indices,
        )?;
        builder.finish()
    }

    fn walk(
        node: &Node,
        builder: &mut SanBuilder,
        prefix: String,
        env: &BTreeMap<String, PlaceId>,
        rep_indices: &mut Vec<usize>,
    ) -> Result<(), SanError> {
        match node {
            Node::Atomic { name, template } => {
                let full = join_path(&prefix, name);
                let mut sb = SubnetBuilder {
                    builder,
                    prefix: full,
                    env: env.clone(),
                    rep_indices: rep_indices.clone(),
                };
                template.build(&mut sb)
            }
            Node::Rep {
                name,
                count,
                shared,
                child,
            } => {
                let full = join_path(&prefix, name);
                let mut child_env = env.clone();
                bind_shared(builder, &full, shared, &mut child_env);
                for i in 0..*count {
                    rep_indices.push(i);
                    Self::walk(
                        child,
                        builder,
                        format!("{full}[{i}]"),
                        &child_env,
                        rep_indices,
                    )?;
                    rep_indices.pop();
                }
                Ok(())
            }
            Node::Join {
                name,
                shared,
                children,
            } => {
                let full = join_path(&prefix, name);
                let mut child_env = env.clone();
                bind_shared(builder, &full, shared, &mut child_env);
                for child in children {
                    Self::walk(child, builder, full.clone(), &child_env, rep_indices)?;
                }
                Ok(())
            }
        }
    }
}

fn join_path(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_owned()
    } else {
        format!("{prefix}/{name}")
    }
}

/// Allocates any shared places not already bound by an enclosing node.
fn bind_shared(
    builder: &mut SanBuilder,
    path: &str,
    shared: &[SharedPlace],
    env: &mut BTreeMap<String, PlaceId>,
) {
    for sp in shared {
        if !env.contains_key(&sp.name) {
            let id = builder.place(format!("{path}/{}", sp.name), sp.init);
            env.insert(sp.name.clone(), id);
        }
    }
}

/// The builder handed to [`SanTemplate::build`]: a view of the global
/// [`SanBuilder`] with hierarchical naming and shared-place resolution.
pub struct SubnetBuilder<'a> {
    builder: &'a mut SanBuilder,
    prefix: String,
    env: BTreeMap<String, PlaceId>,
    rep_indices: Vec<usize>,
}

impl<'a> SubnetBuilder<'a> {
    /// This submodel's position under each enclosing Rep node (outermost
    /// first).
    pub fn rep_indices(&self) -> &[usize] {
        &self.rep_indices
    }

    /// This submodel's hierarchical name prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// Resolves `name` to a place: a shared binding if one is in scope,
    /// otherwise a fresh local place named `{prefix}/{name}` with marking
    /// `init`.
    ///
    /// The `init` of a shared place is fixed where the sharing is declared;
    /// the value passed here is ignored for shared resolutions.
    pub fn place(&mut self, name: &str, init: i32) -> PlaceId {
        if let Some(&id) = self.env.get(name) {
            return id;
        }
        self.builder.place(format!("{}/{name}", self.prefix), init)
    }

    /// Starts a timed activity with constant rate (named
    /// `{prefix}/{name}`).
    pub fn timed_activity(&mut self, name: &str, rate: f64) -> ActivityBuilder<'_> {
        let full = format!("{}/{name}", self.prefix);
        self.builder.timed_activity(full, rate)
    }

    /// Starts a timed activity with a marking-dependent rate.
    pub fn timed_activity_fn(
        &mut self,
        name: &str,
        rate: ValueFn,
        reads: &[PlaceId],
    ) -> ActivityBuilder<'_> {
        let full = format!("{}/{name}", self.prefix);
        self.builder.timed_activity_fn(full, rate, reads)
    }

    /// Starts an instantaneous activity.
    pub fn instantaneous_activity(&mut self, name: &str) -> ActivityBuilder<'_> {
        let full = format!("{}/{name}", self.prefix);
        self.builder.instantaneous_activity(full)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulator::SanSimulator;

    /// A template with one local counter and one shared pool: the activity
    /// moves tokens from the shared pool into the local counter.
    fn worker_template() -> Arc<dyn SanTemplate> {
        Arc::new(|b: &mut SubnetBuilder<'_>| {
            let pool = b.place("pool", 0); // shared (bound by parent)
            let got = b.place("got", 0); // local
            b.timed_activity("take", 1.0)
                .input_arc(pool, 1)
                .output_arc(got, 1)
                .build()?;
            Ok(())
        })
    }

    #[test]
    fn rep_shares_declared_places_only() {
        let model = ComposedModel::new(
            "m",
            Node::rep(
                "workers",
                3,
                vec![SharedPlace::new("pool", 5)],
                Node::atomic("w", worker_template()),
            ),
        );
        let san = model.flatten().unwrap();
        // 1 shared pool + 3 local "got" places.
        assert_eq!(san.num_places(), 4);
        assert_eq!(san.num_activities(), 3);
        assert!(san.place_id("workers/pool").is_some());
        assert!(san.place_id("workers[0]/w/got").is_some());
        assert!(san.place_id("workers[2]/w/got").is_some());
        assert!(san.activity_id("workers[1]/w/take").is_some());

        // All tokens drain from the shared pool into exactly one of the
        // local counters each.
        let sim = SanSimulator::new(san.clone());
        let stats = sim.run(1, 1000.0, &mut []).unwrap();
        assert_eq!(stats.timed_firings, 5);
    }

    #[test]
    fn join_shares_across_children() {
        let model = ComposedModel::new(
            "m",
            Node::join(
                "top",
                vec![SharedPlace::new("pool", 2)],
                vec![
                    Node::atomic("a", worker_template()),
                    Node::atomic("b", worker_template()),
                ],
            ),
        );
        let san = model.flatten().unwrap();
        assert_eq!(san.num_places(), 3); // pool + 2 locals
        assert!(san.place_id("top/pool").is_some());
        assert!(san.place_id("top/a/got").is_some());
        assert!(san.place_id("top/b/got").is_some());
    }

    #[test]
    fn nested_sharing_outer_binding_wins() {
        // The outer Join declares "pool"; the inner Rep also declares it.
        // The outer binding must be used (one single pool).
        let model = ComposedModel::new(
            "m",
            Node::join(
                "sys",
                vec![SharedPlace::new("pool", 7)],
                vec![Node::rep(
                    "grp",
                    2,
                    vec![SharedPlace::new("pool", 99)],
                    Node::atomic("w", worker_template()),
                )],
            ),
        );
        let san = model.flatten().unwrap();
        let pool = san.place_id("sys/pool").unwrap();
        assert_eq!(san.initial_marking().get(pool), 7);
        // No second pool was created.
        assert!(san.place_id("sys/grp/pool").is_none());
    }

    #[test]
    fn rep_indices_visible_to_templates() {
        let template: Arc<dyn SanTemplate> = Arc::new(|b: &mut SubnetBuilder<'_>| {
            let idx = *b.rep_indices().last().unwrap() as i32;
            let marker = b.place("marker", idx);
            b.timed_activity("t", 1.0).input_arc(marker, 1).build()?;
            Ok(())
        });
        let model = ComposedModel::new("m", Node::rep("r", 3, vec![], Node::atomic("x", template)));
        let san = model.flatten().unwrap();
        for i in 0..3 {
            let p = san.place_id(&format!("r[{i}]/x/marker")).unwrap();
            assert_eq!(san.initial_marking().get(p), i);
        }
    }

    #[test]
    fn paper_shaped_tree_flattens() {
        // Join1(Rep1(apps, Join2(Rep(replicas), Mgmt)), Rep2(domains, RepH(hosts)))
        let replica: Arc<dyn SanTemplate> = Arc::new(|b: &mut SubnetBuilder<'_>| {
            let running = b.place("replicas_running", 0); // shared per app
            let started = b.place("has_started", 0); // local
            let sys = b.place("start_pool", 0); // global
            b.timed_activity("start", 1.0)
                .input_arc(sys, 1)
                .output_arc(running, 1)
                .output_arc(started, 1)
                .build()?;
            Ok(())
        });
        let mgmt: Arc<dyn SanTemplate> = Arc::new(|b: &mut SubnetBuilder<'_>| {
            let running = b.place("replicas_running", 0);
            let sys = b.place("start_pool", 0);
            b.timed_activity("recover", 1.0)
                .predicate(&[running], move |m| m.get(running) < 3)
                .output_arc(sys, 1)
                .build()?;
            Ok(())
        });
        let host: Arc<dyn SanTemplate> = Arc::new(|b: &mut SubnetBuilder<'_>| {
            let excluded = b.place("domain_excluded", 0); // shared per domain
            let up = b.place("up", 1); // local
            b.timed_activity("attack", 0.1)
                .input_arc(up, 1)
                .output_arc(excluded, 1)
                .build()?;
            Ok(())
        });

        let tree = Node::join(
            "itua",
            vec![SharedPlace::new("start_pool", 0)],
            vec![
                Node::rep(
                    "apps",
                    2,
                    vec![],
                    Node::join(
                        "app",
                        vec![SharedPlace::new("replicas_running", 0)],
                        vec![
                            Node::rep("reps", 3, vec![], Node::atomic("replica", replica)),
                            Node::atomic("mgmt", mgmt),
                        ],
                    ),
                ),
                Node::rep(
                    "domains",
                    2,
                    vec![],
                    Node::rep(
                        "hosts",
                        2,
                        vec![SharedPlace::new("domain_excluded", 0)],
                        Node::atomic("host", host),
                    ),
                ),
            ],
        );
        let san = ComposedModel::new("itua", tree).flatten().unwrap();
        // Places: start_pool (1) + per-app replicas_running (2) +
        // per-replica has_started (6) + per-domain domain_excluded (2) +
        // per-host up (4) = 15.
        assert_eq!(san.num_places(), 15);
        // Activities: 6 replica starts + 2 mgmt + 4 hosts = 12.
        assert_eq!(san.num_activities(), 12);
        // Distinct replicas_running per app.
        let r0 = san.place_id("itua/apps[0]/app/replicas_running").unwrap();
        let r1 = san.place_id("itua/apps[1]/app/replicas_running").unwrap();
        assert_ne!(r0, r1);
        // The model runs.
        let sim = SanSimulator::new(san);
        sim.run(1, 5.0, &mut []).unwrap();
    }
}
