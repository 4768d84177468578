//! The source registry: federation members, groups, and selection.
//!
//! A *member* is one connected wrapper. Members with the same `group`
//! name form either a **replica group** (every member holds the full
//! data; any one of them can answer, cheapest first, with failover) or a
//! **partition group** (each member holds a disjoint shard keyed by a
//! partition field; all matching members are contacted and their
//! contributions united). Plans address the *group*; the registry is what
//! turns a group into the concrete members to contact.

use crate::cost::{CostRecord, CostSnapshot};
use crate::prune::Constraints;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// How a member relates to its group's data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemberRole {
    /// Holds the full group data (replica group).
    Replica,
    /// Holds the subset of documents whose partition `field` value is in
    /// `values` (partition group). Values are exclusive across the
    /// group: a document lives in exactly one shard.
    Shard {
        /// The partition field (e.g. `style`).
        field: String,
        /// The field values this shard owns.
        values: BTreeSet<String>,
    },
}

/// What kind of group a set of members forms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupKind {
    /// Replicated: members are interchangeable copies.
    Replicated,
    /// Partitioned: members hold disjoint shards.
    Partitioned,
}

/// One registered federation member.
#[derive(Debug, Clone)]
pub struct Member {
    /// The member's connection id (unique across the mediator).
    pub name: String,
    /// The group this member belongs to (what plans address).
    pub group: String,
    /// The member's role within the group.
    pub role: MemberRole,
    /// Whether the member can execute pushed plan fragments (false for
    /// fetch-only capability profiles — their documents are pulled and
    /// evaluated mediator-side instead).
    pub execute: bool,
    /// The member's live health/cost record.
    pub cost: Arc<CostRecord>,
}

impl Member {
    /// A full-capability replica member.
    pub fn replica(name: impl Into<String>, group: impl Into<String>) -> Member {
        Member {
            name: name.into(),
            group: group.into(),
            role: MemberRole::Replica,
            execute: true,
            cost: Arc::new(CostRecord::new()),
        }
    }

    /// A full-capability shard member owning `values` of `field`.
    pub fn shard(
        name: impl Into<String>,
        group: impl Into<String>,
        field: impl Into<String>,
        values: impl IntoIterator<Item = String>,
    ) -> Member {
        Member {
            name: name.into(),
            group: group.into(),
            role: MemberRole::Shard {
                field: field.into(),
                values: values.into_iter().collect(),
            },
            execute: true,
            cost: Arc::new(CostRecord::new()),
        }
    }

    /// The same member with pushed execution disabled (fetch-only).
    pub fn fetch_only(mut self) -> Member {
        self.execute = false;
        self
    }
}

/// The registry of federation members and their groups.
#[derive(Debug, Default)]
pub struct SourceRegistry {
    members: BTreeMap<String, Member>,
    groups: BTreeMap<String, GroupKind>,
}

impl SourceRegistry {
    /// An empty registry (every source is then a plain, ungrouped
    /// connection and the mediator behaves exactly as before).
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no members are registered.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Number of registered members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Registers a member, validating group consistency: the group kind
    /// must match the member's role, names must not collide, and shard
    /// value sets within a group must stay disjoint (otherwise partition
    /// pruning would be unsound).
    pub fn register(&mut self, member: Member) -> Result<(), String> {
        if self.members.contains_key(&member.name) {
            return Err(format!("member `{}` is already registered", member.name));
        }
        if self.groups.contains_key(&member.name) {
            return Err(format!(
                "member `{}` collides with a group name",
                member.name
            ));
        }
        if self.members.contains_key(&member.group) {
            return Err(format!(
                "group `{}` collides with a member name",
                member.group
            ));
        }
        let kind = match &member.role {
            MemberRole::Replica => GroupKind::Replicated,
            MemberRole::Shard { .. } => GroupKind::Partitioned,
        };
        if let Some(existing) = self.groups.get(&member.group) {
            if *existing != kind {
                return Err(format!(
                    "group `{}` mixes replica and shard members",
                    member.group
                ));
            }
        }
        if let MemberRole::Shard { field, values } = &member.role {
            for peer in self.members_of(&member.group) {
                if let MemberRole::Shard {
                    field: pf,
                    values: pv,
                } = &peer.role
                {
                    if pf != field {
                        return Err(format!(
                            "group `{}` mixes partition fields `{pf}` and `{field}`",
                            member.group
                        ));
                    }
                    if let Some(v) = values.intersection(pv).next() {
                        return Err(format!(
                            "shards `{}` and `{}` both claim `{field}` = {v:?}",
                            peer.name, member.name
                        ));
                    }
                }
            }
        }
        self.groups.insert(member.group.clone(), kind);
        self.members.insert(member.name.clone(), member);
        Ok(())
    }

    /// True when `name` is a registered group.
    pub fn is_group(&self, name: &str) -> bool {
        self.groups.contains_key(name)
    }

    /// The group's kind, if `name` is a group.
    pub fn group_kind(&self, name: &str) -> Option<GroupKind> {
        self.groups.get(name).copied()
    }

    /// The member registered under `name`, if any.
    pub fn member(&self, name: &str) -> Option<&Member> {
        self.members.get(name)
    }

    /// The group `member` belongs to, if it is a registered member.
    pub fn group_of(&self, member: &str) -> Option<&str> {
        self.members.get(member).map(|m| m.group.as_str())
    }

    /// All members of `group`, in name order.
    pub fn members_of(&self, group: &str) -> Vec<&Member> {
        self.members.values().filter(|m| m.group == group).collect()
    }

    /// All registered member names, in order.
    pub fn member_names(&self) -> Vec<&str> {
        self.members.keys().map(String::as_str).collect()
    }

    /// The cost snapshot for `name`: a member's own record, or the
    /// trip-weighted aggregate over a group's members. Unknown names
    /// cost nothing (plain two-source mediators stay unaffected).
    pub fn cost(&self, name: &str) -> CostSnapshot {
        if let Some(m) = self.members.get(name) {
            return m.cost.snapshot();
        }
        self.members_of(name)
            .iter()
            .fold(CostSnapshot::default(), |acc, m| {
                acc.merge(&m.cost.snapshot())
            })
    }

    /// Records an answer-cache lookup outcome against `name` (member or
    /// group; unknown names are ignored).
    pub fn observe_cache(&self, name: &str, hit: bool) {
        if let Some(m) = self.members.get(name) {
            m.cost.observe_cache(hit);
        } else if let Some(m) = self.members_of(name).into_iter().next() {
            // Attribute group-keyed lookups once, to the first member.
            m.cost.observe_cache(hit);
        }
    }

    /// The members of a replica group ordered by expected cost (cheapest
    /// first, name as tie-break) — the failover order. With
    /// `need_execute`, fetch-only members are skipped.
    pub fn replicas_in_cost_order(&self, group: &str, need_execute: bool) -> Vec<String> {
        let mut members: Vec<&Member> = self
            .members_of(group)
            .into_iter()
            .filter(|m| !need_execute || m.execute)
            .collect();
        members.sort_by(|a, b| {
            let ca = a.cost.snapshot().expected_cost();
            let cb = b.cost.snapshot().expected_cost();
            ca.partial_cmp(&cb)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.name.cmp(&b.name))
        });
        members.into_iter().map(|m| m.name.clone()).collect()
    }

    /// The partition field of a partitioned group, if any.
    pub fn partition_field(&self, group: &str) -> Option<String> {
        self.members_of(group).iter().find_map(|m| match &m.role {
            MemberRole::Shard { field, .. } => Some(field.clone()),
            MemberRole::Replica => None,
        })
    }

    /// The union of all declared partition values of `group` — the
    /// closed vocabulary pruning is sound against: a constraint constant
    /// outside it says nothing about which shard holds the document.
    pub fn vocabulary(&self, group: &str) -> BTreeSet<String> {
        let mut vocab = BTreeSet::new();
        for m in self.members_of(group) {
            if let MemberRole::Shard { values, .. } = &m.role {
                vocab.extend(values.iter().cloned());
            }
        }
        vocab
    }

    /// Partition pruning: the members of `group` that could hold
    /// documents satisfying `constraints`, in name order.
    ///
    /// The required value set is the union of equality constants on the
    /// partition field and `contains` needles that fall inside the
    /// group's declared vocabulary (a needle outside it may match any
    /// document's free text, so it cannot prune). A shard qualifies iff
    /// it owns every required value — conjunctive constraints demanding
    /// two distinct values of an exclusive field can match nothing, in
    /// which case the cheapest single member is kept so the (empty)
    /// answer still has a source to come from.
    pub fn prune(&self, group: &str, constraints: &Constraints) -> Vec<String> {
        let Some(field) = self.partition_field(group) else {
            return self
                .members_of(group)
                .iter()
                .map(|m| m.name.clone())
                .collect();
        };
        let vocab = self.vocabulary(group);
        let mut required: BTreeSet<String> =
            constraints.eq.get(&field).cloned().unwrap_or_default();
        required.extend(constraints.needles.intersection(&vocab).cloned());
        let selected: Vec<String> = self
            .members_of(group)
            .iter()
            .filter(|m| match &m.role {
                MemberRole::Shard { values, .. } => required.is_subset(values),
                MemberRole::Replica => true,
            })
            .map(|m| m.name.clone())
            .collect();
        if selected.is_empty() {
            return self
                .replicas_in_cost_order(group, false)
                .into_iter()
                .take(1)
                .collect();
        }
        selected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn shard(name: &str, values: &[&str]) -> Member {
        Member::shard(name, "wais", "style", values.iter().map(|s| s.to_string()))
    }

    fn registry() -> SourceRegistry {
        let mut r = SourceRegistry::new();
        r.register(Member::replica("o2_0", "art")).unwrap();
        r.register(Member::replica("o2_1", "art")).unwrap();
        r.register(shard("wais_0", &["Impressionist", "Realist"]))
            .unwrap();
        r.register(shard("wais_1", &["Cubist"]).fetch_only())
            .unwrap();
        r
    }

    #[test]
    fn registration_validates_consistency() {
        let mut r = registry();
        assert!(
            r.register(Member::replica("o2_0", "art")).is_err(),
            "dup member"
        );
        assert!(
            r.register(Member::replica("art", "g")).is_err(),
            "member = group"
        );
        assert!(
            r.register(Member::replica("g", "wais_0")).is_err(),
            "group = member"
        );
        assert!(
            r.register(Member::replica("x", "wais")).is_err(),
            "mixed kinds"
        );
        assert!(
            r.register(shard("wais_2", &["Cubist", "Romantic"]))
                .is_err(),
            "overlapping shard values"
        );
        assert!(
            r.register(Member::shard("wais_2", "wais", "artist", ["X".to_string()]))
                .is_err(),
            "mixed partition fields"
        );
        assert!(r.register(shard("wais_2", &["Romantic"])).is_ok());
    }

    #[test]
    fn groups_and_members_resolve() {
        let r = registry();
        assert!(r.is_group("art") && r.is_group("wais"));
        assert!(!r.is_group("o2_0"));
        assert_eq!(r.group_kind("art"), Some(GroupKind::Replicated));
        assert_eq!(r.group_kind("wais"), Some(GroupKind::Partitioned));
        assert_eq!(r.group_of("wais_1"), Some("wais"));
        assert_eq!(
            r.members_of("wais")
                .iter()
                .map(|m| &m.name)
                .collect::<Vec<_>>(),
            ["wais_0", "wais_1"]
        );
        assert_eq!(r.partition_field("wais").as_deref(), Some("style"));
        assert_eq!(r.vocabulary("wais").len(), 3);
    }

    #[test]
    fn replica_order_follows_cost() {
        let r = registry();
        // no history: name order
        assert_eq!(r.replicas_in_cost_order("art", false), ["o2_0", "o2_1"]);
        // o2_0 becomes expensive: o2_1 first
        r.member("o2_0")
            .unwrap()
            .cost
            .observe(Duration::from_millis(50), 10_000, true);
        r.member("o2_1")
            .unwrap()
            .cost
            .observe(Duration::from_millis(1), 100, true);
        assert_eq!(r.replicas_in_cost_order("art", false), ["o2_1", "o2_0"]);
        // execute filter skips fetch-only members
        assert_eq!(r.replicas_in_cost_order("wais", true), ["wais_0"]);
    }

    #[test]
    fn pruning_uses_vocabulary_and_falls_back() {
        let r = registry();
        let mut c = Constraints::default();
        // unconstrained: all shards
        assert_eq!(r.prune("wais", &c), ["wais_0", "wais_1"]);
        // a needle in the vocabulary prunes to its owner
        c.needles.insert("Cubist".to_string());
        assert_eq!(r.prune("wais", &c), ["wais_1"]);
        // a needle outside the vocabulary cannot prune further
        c.needles.insert("Giverny".to_string());
        assert_eq!(r.prune("wais", &c), ["wais_1"]);
        // contradictory requirements: keep one member for an empty answer
        c.needles.insert("Realist".to_string());
        assert_eq!(r.prune("wais", &c).len(), 1);
        // eq constraints on the partition field prune too
        let mut c = Constraints::default();
        c.eq.entry("style".to_string())
            .or_default()
            .insert("Realist".to_string());
        assert_eq!(r.prune("wais", &c), ["wais_0"]);
        // eq on another field does not
        let mut c = Constraints::default();
        c.eq.entry("artist".to_string())
            .or_default()
            .insert("Claude Monet".to_string());
        assert_eq!(r.prune("wais", &c), ["wais_0", "wais_1"]);
        // replica groups never prune
        assert_eq!(r.prune("art", &Constraints::default()), ["o2_0", "o2_1"]);
    }

    #[test]
    fn cost_aggregates_over_groups() {
        let r = registry();
        r.member("o2_0")
            .unwrap()
            .cost
            .observe(Duration::from_millis(10), 0, false);
        r.member("o2_1")
            .unwrap()
            .cost
            .observe(Duration::from_millis(20), 0, true);
        let g = r.cost("art");
        assert_eq!(g.trips, 2);
        assert_eq!(g.errors, 1);
        assert_eq!(r.cost("nonexistent"), CostSnapshot::default());
        r.observe_cache("art", true);
        assert_eq!(r.cost("art").cache_hits, 1);
    }
}
