//! Cryptographic payload work for SecComm, implemented from scratch:
//! [`des`] (FIPS 46-3), [`md5`](mod@md5) (RFC 1321), and the trivial [`xorcipher`].

pub mod des;
pub mod md5;
pub mod xorcipher;

pub use des::{decrypt as des_decrypt, encrypt as des_encrypt, DesKey};
pub use md5::{digest_hex, keyed_md5, md5, Md5};
pub use xorcipher::xor_cipher;
