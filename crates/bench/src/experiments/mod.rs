//! The experiment suite: one module per theorem/lemma/ablation, indexed in
//! `ARCHITECTURE.md` ("The experiment index").

pub mod a1;
pub mod a2;
pub mod a3;
pub mod a4;
pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e2;
pub mod e3;
pub mod e4a;
pub mod e4b;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod v1;
