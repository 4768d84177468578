//! Wrapper adapters used to build federations with varied behavior:
//! capability-profile narrowing and induced failures (the kill-k-of-N
//! differential axis and the partial-failure tests).

use yat_capability::protocol::{Request, Response, WrapperServer};

/// Narrows a wrapper to a fetch-only capability profile: its interface
/// is re-exported with no operations and no equivalences, so the
/// optimizer can neither push fragments to it nor introduce `contains`
/// for it, and `Execute`/`ExecuteBatch` requests are refused. Documents
/// still serve.
pub struct FetchOnly<W: WrapperServer>(pub W);

impl<W: WrapperServer> WrapperServer for FetchOnly<W> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn handle(&self, request: &Request) -> Response {
        match request {
            Request::GetInterface => match self.0.handle(request) {
                Response::Interface(mut iface) => {
                    iface.operations.clear();
                    iface.equivalences.clear();
                    Response::Interface(iface)
                }
                other => other,
            },
            Request::Execute { .. } | Request::ExecuteBatch { .. } => Response::Error(format!(
                "source `{}` is fetch-only and cannot execute plans",
                self.0.name()
            )),
            _ => self.0.handle(request),
        }
    }
}

/// A wrapper that connects (serves its interface) but fails every data
/// request — a member that died after import.
pub struct Dead<W: WrapperServer>(pub W);

impl<W: WrapperServer> WrapperServer for Dead<W> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn handle(&self, request: &Request) -> Response {
        match request {
            Request::GetInterface => self.0.handle(request),
            _ => Response::Error(format!("source `{}` is down", self.0.name())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use yat_capability::interface::{Interface, OperationDecl};
    use yat_model::{Node, Tree};

    struct Fake;

    impl WrapperServer for Fake {
        fn name(&self) -> &str {
            "fake"
        }

        fn handle(&self, request: &Request) -> Response {
            match request {
                Request::GetInterface => {
                    let mut i = Interface::new("fake");
                    i.operations.push(OperationDecl::algebra("select"));
                    Response::Interface(i)
                }
                Request::GetDocument { name } => Response::Document {
                    name: name.clone(),
                    tree: doc(),
                },
                Request::Execute { .. } | Request::ExecuteBatch { .. } => {
                    Response::Result(yat_algebra::Tab::new(vec![]))
                }
            }
        }
    }

    fn doc() -> Tree {
        Node::sym("d", vec![])
    }

    #[test]
    fn fetch_only_strips_operations_and_refuses_execute() {
        let w = FetchOnly(Fake);
        assert_eq!(w.name(), "fake");
        let Response::Interface(i) = w.handle(&Request::GetInterface) else {
            panic!("interface")
        };
        assert!(i.operations.is_empty() && i.equivalences.is_empty());
        assert!(matches!(
            w.handle(&Request::GetDocument { name: "d".into() }),
            Response::Document { .. }
        ));
        assert!(matches!(
            w.handle(&Request::Execute {
                plan: yat_algebra::Alg::source("d")
            }),
            Response::Error(_)
        ));
        assert!(matches!(
            w.handle(&Request::ExecuteBatch {
                plan: yat_algebra::Alg::source("d"),
                bindings: yat_capability::protocol::Bindings::unit(),
            }),
            Response::Error(_)
        ));
    }

    #[test]
    fn dead_serves_interface_only() {
        let w = Dead(Fake);
        assert!(matches!(
            w.handle(&Request::GetInterface),
            Response::Interface(_)
        ));
        let Response::Error(m) = w.handle(&Request::GetDocument { name: "d".into() }) else {
            panic!("error expected")
        };
        assert!(m.contains("down"), "{m}");
    }
}
